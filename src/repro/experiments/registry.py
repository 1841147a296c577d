"""The experiment registry: every paper artifact behind one protocol.

Historically each artifact module grew its own ``run()`` signature
(``run(*, iters)``, ``run(*, quick, seed)``, ``run(package_root)``, ...)
and ``cli.py`` hand-dispatched between them, including artifact-specific
argument checks.  :class:`ExperimentSpec` replaces that with a uniform
contract:

* a **parameter schema** (:class:`ParamSpec`) with typed defaults,
  choice sets and validators — unknown or ill-typed parameters fail the
  same way for every artifact (this is where the old table4-only
  ``--scenario`` check now lives);
* a ``run(**params)`` entry resolved by *module/function name*, so a
  task ``(module, entry, params)`` can be shipped to a spawned worker
  process without pickling code;
* the ``to_json()/from_json()`` result contract (``result_type``) the
  on-disk cache, the daemon's wire and the report manifest share — the
  built-in results get it from :class:`~repro.experiments.serde.Codec`;
* a ``cost_hint`` (relative serial wall-clock) the process-pool runner
  uses to schedule longest tasks first.

The standard parameters are ``quick`` (reduced same-shape workloads vs
the paper's ``--full`` sizes), ``iters`` (micro-benchmark iterations)
and ``seed`` — each spec's schema declares which of them the artifact
actually consumes, so passing an inert knob is an error rather than a
silent no-op.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "ExperimentParamError",
    "ARTIFACT_NAMES",
    "get",
    "specs",
    "register",
]


class ExperimentParamError(ValueError):
    """A parameter does not fit an experiment's schema."""


_KINDS = ("int", "float", "bool", "str", "ints", "floats", "strs")
_SCALAR_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCALAR_PARSERS["bool"] = _parse_bool


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of an experiment."""

    name: str
    kind: str  # one of _KINDS; plural kinds are tuples of the scalar kind
    default: Any
    help: str = ""
    #: valid scalar values (for plural kinds: valid *elements*)
    choices: tuple[Any, ...] | None = None
    #: extra check on the final value; returns an error message or None
    validator: Callable[[Any], str | None] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}")

    @property
    def is_list(self) -> bool:
        return self.kind.endswith("s") and self.kind != "str"

    def _scalar(self, text: str) -> Any:
        return _SCALAR_PARSERS[self.kind.rstrip("s") if self.is_list else self.kind](text)

    def parse(self, text: str) -> Any:
        """Parse a CLI ``k=v`` value; plural kinds take comma-separated
        elements (``drops=0.0,0.01,0.1``)."""
        try:
            if self.is_list:
                return tuple(self._scalar(t) for t in text.split(",") if t != "")
            return self._scalar(text)
        except ValueError as exc:
            raise ExperimentParamError(
                f"parameter '{self.name}': cannot parse {text!r} as {self.kind}: {exc}"
            ) from None

    def parse_axis(self, text: str) -> list[Any]:
        """Parse a sweep axis ``k=v1,v2,...`` into one value per grid
        point.  For plural kinds each point gets a one-element tuple, so
        e.g. ``sweep faults --param drops=0.0,0.1`` runs two cells."""
        try:
            values = [self._scalar(t) for t in text.split(",") if t != ""]
        except ValueError as exc:
            raise ExperimentParamError(
                f"parameter '{self.name}': cannot parse axis {text!r}: {exc}"
            ) from None
        if not values:
            raise ExperimentParamError(f"parameter '{self.name}': empty sweep axis")
        return [(v,) if self.is_list else v for v in values]

    def check(self, value: Any) -> Any:
        """Validate a parsed (or programmatic) value against the schema."""
        if value is None:
            return None
        if self.is_list and isinstance(value, list):
            value = tuple(value)
        elements = value if self.is_list else (value,)
        if self.is_list and not isinstance(elements, tuple):
            raise ExperimentParamError(
                f"parameter '{self.name}': expected a tuple of {self.kind}, "
                f"got {value!r}"
            )
        if self.choices is not None:
            bad = [e for e in elements if e not in self.choices]
            if bad:
                raise ExperimentParamError(
                    f"parameter '{self.name}': invalid value(s) "
                    f"{', '.join(map(repr, bad))}; choose from "
                    f"{', '.join(map(repr, self.choices))}"
                )
        if self.validator is not None:
            message = self.validator(value)
            if message:
                raise ExperimentParamError(f"parameter '{self.name}': {message}")
        return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One artifact behind the uniform run/render/serialize protocol."""

    name: str
    title: str
    module: str  # import path holding the entry function
    #: class in ``result_module`` with to_json/from_json (``serde.Codec``'s)
    result_type: str
    entry: str = "run"
    params: tuple[ParamSpec, ...] = ()
    #: basename for files written by the report writer (defaults to name)
    file_stem: str = ""
    #: relative serial wall-clock, for longest-first pool scheduling
    cost_hint: float = 1.0
    #: where ``result_type`` lives when ``module`` itself cannot be
    #: imported without the simulator (defaults to ``module``): loading a
    #: cached result must not cost the runtimes that computed it
    result_module: str = ""
    #: artifacts this one's result is a pure function of, each at its
    #: defaults plus this spec's standard parameters (:meth:`input_tasks`)
    inputs: tuple[str, ...] = ()
    #: entry in ``module`` computing the result from the results of
    #: ``inputs``, in that order — what the job queue calls when the
    #: same job already computes every input
    from_inputs: str = ""

    def __post_init__(self) -> None:
        if not self.file_stem:
            object.__setattr__(self, "file_stem", self.name)
        if not self.result_module:
            object.__setattr__(self, "result_module", self.module)

    # -- schema ----------------------------------------------------------
    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        known = ", ".join(p.name for p in self.params) or "(none)"
        raise ExperimentParamError(
            f"experiment '{self.name}' has no parameter '{name}'; known: {known}"
        )

    def has_param(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    def standard_overrides(
        self,
        *,
        quick: bool | None = None,
        iters: int | None = None,
        seed: int | None = None,
    ) -> dict[str, Any]:
        """The standard parameters, filtered to what this spec declares."""
        given = {"quick": quick, "iters": iters, "seed": seed}
        return {
            name: value for name, value in given.items()
            if value is not None and self.has_param(name)
        }

    def validate(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Defaults merged with ``overrides``, every value schema-checked.
        Unknown parameter names raise :class:`ExperimentParamError` — the
        same failure for every artifact."""
        merged = self.defaults()
        for name, value in (overrides or {}).items():
            merged[name] = self.param(name).check(value)
        return merged

    # -- execution -------------------------------------------------------
    def run_fn(self) -> Callable[..., Any]:
        return getattr(importlib.import_module(self.module), self.entry)

    def run(self, **overrides: Any) -> Any:
        """Validate ``overrides`` against the schema and run the artifact."""
        return self.run_fn()(**self.validate(overrides))

    def input_tasks(self, params: Mapping[str, Any]) -> list[tuple["ExperimentSpec", dict]]:
        """``(spec, validated params)`` of each of :attr:`inputs`: its
        defaults plus the standard parameters (``quick``, ``iters``,
        ``seed``) that ``params`` sets and the input declares."""
        standard = {k: params.get(k) for k in ("quick", "iters", "seed")}
        return [
            (spec, spec.validate(spec.standard_overrides(**standard)))
            for spec in map(get, self.inputs)
        ]

    # -- serialization ---------------------------------------------------
    def result_class(self) -> type:
        return getattr(importlib.import_module(self.result_module), self.result_type)

    def result_from_json(self, payload: Any) -> Any:
        return self.result_class().from_json(payload)


# ---------------------------------------------------------------------------
# The built-in artifact registry
# ---------------------------------------------------------------------------

def _quick() -> ParamSpec:
    return ParamSpec(
        "quick", "bool", True,
        "reduced same-shape workload (False = the paper's full sizes)",
    )


def _iters(default: int) -> ParamSpec:
    return ParamSpec("iters", "int", default, "micro-benchmark iterations")


def _seed() -> ParamSpec:
    return ParamSpec("seed", "int", 1997, "workload-generation seed")


def _check_scenarios(value: Any) -> str | None:
    if value is None:
        return None
    from repro.experiments.table4 import scenario_names

    known = set(scenario_names())
    unknown = [s for s in value if s not in known]
    if unknown:
        return (
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(scenario_names())}"
        )
    return None


def _check_topology(value: Any) -> str | None:
    if value is None:
        return None
    from repro.errors import SimulationError
    from repro.machine.topology import make_topology

    try:
        make_topology(value, 4)
    except SimulationError as exc:
        return str(exc)
    return None


def _topology(default: str) -> ParamSpec:
    return ParamSpec(
        "topology", "str", default,
        "interconnect spec: flat | ring | fattree[:arity=A,fatness=F]",
        validator=_check_topology,
    )


_EM3D_VERSIONS = ("base", "ghost", "bulk")

_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec (used by the built-ins below and by tests/benchmarks)."""
    _REGISTRY[spec.name] = spec
    return spec


register(ExperimentSpec(
    name="table1",
    title="Table 1 — runtime source-code size",
    module="repro.experiments.table1",
    result_type="Table1Result",
    cost_hint=0.3,
))
register(ExperimentSpec(
    name="table4",
    title="Table 4 — communication micro-benchmarks",
    module="repro.experiments.table4",
    result_type="Table4Result",
    params=(
        _iters(50),
        ParamSpec(
            "scenarios", "strs", None,
            "measure only these rows (Table 4 names, 'am-rtt', 'mpl-rtt')",
            validator=_check_scenarios,
        ),
    ),
    cost_hint=0.5,
))
register(ExperimentSpec(
    name="figure5",
    title="Figure 5 — EM3D per-edge breakdown",
    module="repro.experiments.figure5",
    result_type="Figure5Result",
    params=(
        _quick(), _seed(),
        ParamSpec("pcts", "floats", (0.1, 0.4, 0.7, 1.0), "remote-edge fractions"),
        ParamSpec("versions", "strs", _EM3D_VERSIONS, "EM3D variants",
                  choices=_EM3D_VERSIONS),
        ParamSpec("steps", "int", 1, "measured EM3D steps"),
        _topology("flat"),
    ),
    cost_hint=2.0,
))
register(ExperimentSpec(
    name="figure6",
    title="Figure 6 — Water and LU breakdowns",
    module="repro.experiments.figure6",
    result_type="Figure6Result",
    params=(
        _quick(), _seed(),
        ParamSpec("water_versions", "strs", ("atomic", "prefetch"),
                  "water variants", choices=("atomic", "prefetch")),
        ParamSpec("include_lu", "bool", True, "also run blocked LU"),
    ),
    cost_hint=2.4,
))
register(ExperimentSpec(
    name="nexus",
    title="§6 — CC++/ThAM vs CC++/Nexus",
    module="repro.experiments.nexus_compare",
    result_type="NexusCompareResult",
    params=(_quick(), _seed()),
    file_stem="nexus_compare",
    cost_hint=1.0,
))
register(ExperimentSpec(
    name="ablations",
    title="§6 — design-choice ablations",
    module="repro.experiments.ablations",
    result_type="AblationResult",
    params=(_iters(30),),
    cost_hint=0.3,
))
register(ExperimentSpec(
    name="faults",
    title="Drop-rate ablation over a lossy fabric",
    module="repro.experiments.faults",
    result_type="FaultAblationResult",
    params=(
        ParamSpec("drops", "floats", (0.0, 0.01, 0.10), "drop probabilities"),
        ParamSpec("seeds", "ints", (1, 2), "fault-plan seeds"),
        _iters(30),
        ParamSpec("steps", "int", 2, "EM3D iterations per cell"),
    ),
    cost_hint=0.6,
))
register(ExperimentSpec(
    name="chaos",
    title="Chaos matrix — randomized fault plans vs checkpoint/restart",
    module="repro.experiments.chaos",
    result_type="ChaosResult",
    params=(
        ParamSpec("plans", "int", 25, "number of seeded fault plans"),
        ParamSpec("seed", "int", 1997, "top-level chaos seed"),
        ParamSpec("steps", "int", 4, "EM3D iterations per scenario"),
    ),
    cost_hint=1.2,
))
register(ExperimentSpec(
    name="scaling",
    title="§6 — bulk-transfer scaling ('factor of about 200')",
    module="repro.experiments.scaling",
    result_type="ScalingResult",
    result_module="repro.experiments.results",
    params=(
        ParamSpec("sizes", "ints", (20, 200, 2000, 20000),
                  "doubles per transfer"),
    ),
    cost_hint=0.1,
))
register(ExperimentSpec(
    name="scorecard",
    title="Reproduction scorecard — every claim graded",
    module="repro.experiments.scorecard",
    result_type="Scorecard",
    params=(_quick(), _iters(30)),
    # graded from its job's own results it is the cheapest task, and it
    # can only start after them; alone it is the only task of its job
    cost_hint=0.0,
    inputs=("table4", "figure5", "figure6", "nexus", "ablations", "scaling"),
    from_inputs="grade",
))
register(ExperimentSpec(
    name="trace",
    title="Span-traced EM3D run (Perfetto export)",
    module="repro.experiments.obs_trace",
    result_type="TraceCaptureResult",
    result_module="repro.experiments.results",
    params=(
        _quick(),
        ParamSpec("version", "str", "bulk", "EM3D variant",
                  choices=_EM3D_VERSIONS),
    ),
    file_stem="trace_summary",  # trace.json is the Perfetto export itself
    cost_hint=0.1,
))
register(ExperimentSpec(
    name="metrics",
    title="Latency/size distributions (log-bucket histograms)",
    module="repro.experiments.obs_metrics",
    result_type="MetricsReport",
    params=(_iters(50), _quick()),
    cost_hint=0.2,
))
register(ExperimentSpec(
    name="congestion",
    title="Congestion — saturation / incast / bisection on hierarchical fabrics",
    module="repro.experiments.congestion",
    result_type="CongestionResult",
    params=(
        ParamSpec("nodes", "int", 64, "cluster size (even, >= 4)",
                  validator=lambda v: None if v >= 4 and v % 2 == 0
                  else "needs an even node count >= 4"),
        _topology("fattree:arity=8,fatness=2"),
        ParamSpec("loads", "ints", (1, 2, 4, 8, 16),
                  "messages per pair at each load level"),
        ParamSpec("msg_bytes", "int", 4096, "payload bytes per message"),
    ),
    cost_hint=1.5,
))
register(ExperimentSpec(
    name="rma",
    title="One-sided RMA — completions, tree collectives, injection, EM3D",
    module="repro.experiments.rma",
    result_type="RmaResult",
    params=(
        _iters(30), _quick(), _seed(),
        ParamSpec("procs", "ints", (2, 4, 8),
                  "processor counts for the tree-vs-linear grid",
                  validator=lambda v: None if all(p >= 1 for p in v)
                  else "needs processor counts >= 1"),
        ParamSpec("radix", "int", 2, "tree fan-out",
                  validator=lambda v: None if v >= 1 else "needs radix >= 1"),
        ParamSpec("comm", "str", "rma",
                  "EM3D ghost-exchange paradigm (a sweepable axis)",
                  choices=("rma", "rmi", "splitc")),
        ParamSpec("threads", "ints", (1, 2, 4, 8),
                  "concurrent sender uthreads for the injection section",
                  validator=lambda v: None if all(t >= 1 for t in v)
                  else "needs thread counts >= 1"),
    ),
    cost_hint=0.8,
))

#: canonical artifact order — `run all` output follows this
ARTIFACT_NAMES: tuple[str, ...] = (
    "table1", "table4", "figure5", "figure6", "nexus", "ablations",
    "faults", "chaos", "scaling", "scorecard", "trace", "metrics",
    "congestion", "rma",
)


def get(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment '{name}'; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def specs() -> tuple[ExperimentSpec, ...]:
    """Built-in artifacts in canonical report order (ad-hoc registrations
    appended after)."""
    ordered = [_REGISTRY[n] for n in ARTIFACT_NAMES]
    extra = [s for n, s in _REGISTRY.items() if n not in ARTIFACT_NAMES]
    return tuple(ordered + extra)
