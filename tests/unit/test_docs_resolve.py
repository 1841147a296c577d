"""Every name the prose points at exists.

Backticked ``repro.…`` dotted names in the user-facing documents must
import (or ``getattr`` off an importable prefix), and backticked paths
ending in ``.py`` (with a directory part: a bare ``cli.py`` names no
place) must exist relative to the repo root, ``src/`` or ``src/repro/``
— so a PR that deletes or renames code fails here until
the sentence that mentions it is brought along.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
_SPANS = {s for doc in DOCS for s in re.findall(r"`([^`\n]+)`", doc.read_text())}
DOTTED = sorted(
    {m for s in _SPANS for m in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", s)}
)
PATHS = sorted(
    {m for s in _SPANS for m in re.findall(r"[\w.-]+/[\w./-]*\.py\b", s)}
)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_the_documents_mention_something():
    assert len(DOTTED) > 40 and len(PATHS) > 20


@pytest.mark.parametrize("dotted", DOTTED)
def test_dotted_name_resolves(dotted):
    assert _resolves(dotted), f"`{dotted}` is named in the docs but does not import"


@pytest.mark.parametrize("path", PATHS)
def test_path_exists(path):
    assert any(
        (base / path).exists() for base in (ROOT, ROOT / "src", ROOT / "src" / "repro")
    ), f"`{path}` is named in the docs but is not in the checkout"
