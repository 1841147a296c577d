"""Small shared utilities: units, deterministic RNG, text tables, stats,
atomic file writes."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "US_PER_MS": "repro.util.units",
    "US_PER_S": "repro.util.units",
    "fmt_time_us": "repro.util.units",
    "us_to_ms": "repro.util.units",
    "us_to_s": "repro.util.units",
    "make_rng": "repro.util.rng",
    "TextTable": "repro.util.tables",
    "OnlineStats": "repro.util.stats",
    "mean": "repro.util.stats",
    "geometric_mean": "repro.util.stats",
    "percentile": "repro.util.stats",
    "write_text_atomic": "repro.util.files",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
