"""Unit: the shared to_json/from_json round-trip contract.

Every result dataclass must survive ``from_json(json.loads(json.dumps(
to_json())))`` with equality — including tuple- and float-keyed maps,
which plain JSON objects cannot represent.  Every registered result type
and every dataclass nested in it is round-tripped from instances that
hypothesis builds out of the type hints; the hand-built cases below pin
a few shapes by name.  No simulations: this covers the serialization
layer alone; the integration suite round-trips real runs through the
cache and pins their payload bytes.
"""

import dataclasses
import json
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import registry, serde
from repro.experiments.ablations import AblationResult
from repro.experiments.breakdown import BreakdownRow
from repro.experiments.faults import FaultAblationResult
from repro.experiments.figure5 import Figure5Result
from repro.experiments.figure6 import Figure6Result
from repro.experiments.microbench import MicroRow
from repro.experiments.nexus_compare import NexusCompareResult
from repro.experiments.obs_metrics import MetricsReport
from repro.experiments.scaling import ScalingPoint, ScalingResult
from repro.experiments.scorecard import Check, Scorecard
from repro.experiments.table1 import CodeSize, Table1Result
from repro.experiments.table4 import Table4Result


_SCALARS = {
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=8),
    bool: st.booleans(),
}
#: what a bare ``dict`` / ``list`` field holds: JSON as it stands
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _SCALARS[float] | _SCALARS[str],
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_SCALARS[str], inner, max_size=3),
    max_leaves=6,
)


def strategy(hint):
    """Instances of one type hint: the shapes the codec has rules for."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return st.builds(hint, **{f.name: strategy(hints[f.name])
                                  for f in dataclasses.fields(hint)})
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return st.none() | strategy(inner)
    if origin is list:
        return st.lists(strategy(args[0]), max_size=3)
    if origin is tuple:
        return st.tuples(*map(strategy, args))
    if origin is dict:
        return st.dictionaries(strategy(args[0]), strategy(args[1]), max_size=3)
    if hint is dict:
        return st.dictionaries(_SCALARS[str], _JSON, max_size=3)
    if hint is list:
        return st.lists(_JSON, max_size=3)
    return _SCALARS[hint]


def _with_nested(hint, found):
    if dataclasses.is_dataclass(hint) and hint not in found:
        found.append(hint)
        for nested in typing.get_type_hints(hint).values():
            _with_nested(nested, found)
    for arg in typing.get_args(hint):
        _with_nested(arg, found)
    return found


RESULT_TYPES = []
for _name in registry.ARTIFACT_NAMES:
    _with_nested(registry.get(_name).result_class(), RESULT_TYPES)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_result_type_round_trips(cls, data):
    assert issubclass(cls, serde.Codec), f"{cls.__name__} does not use the codec"
    result = data.draw(strategy(cls))
    text = json.dumps(result.to_json())
    back = cls.from_json(json.loads(text))
    assert back == result
    assert repr(back) == repr(result)  # tuples stay tuples, maps keep their order
    assert json.dumps(back.to_json()) == text


def roundtrip(result):
    cls = type(result)
    payload = json.loads(json.dumps(result.to_json()))
    back = cls.from_json(payload)
    assert back == result
    return back


def _micro(name="0-Word", total=76.2):
    return MicroRow(name, total, 54.0, 10.0, 8.0, 4.2, 1.0, 0.0, 17.0)


def _bar(label="em3d-base 100%", lang="ccpp"):
    return BreakdownRow(
        label=label, language=lang, elapsed_us=123.5,
        breakdown={"cpu": 10.0, "net": 80.0, "idle": 5.0, "runtime": 28.5},
        normalized=1.8,
    )


class TestSerdeHelpers:
    def test_dump_load_map_scalar_keys(self):
        d = {0.01: 1.0, 0.1: 2.0}
        pairs = json.loads(json.dumps(serde.dump_map(d)))
        assert serde.load_map(pairs) == d
        assert all(isinstance(k, float) for k in serde.load_map(pairs))

    def test_dump_load_map_tuple_keys(self):
        d = {("base", 0.1, "ccpp"): 1.5, ("ghost", 1.0, "splitc"): 1.0}
        pairs = json.loads(json.dumps(serde.dump_map(d)))
        assert serde.load_map(pairs) == d

    def test_map_preserves_insertion_order(self):
        d = {"b": 1, "a": 2}
        assert list(serde.load_map(serde.dump_map(d))) == ["b", "a"]

    def test_canonical_json_normalizes_tuples_and_sorts(self):
        a = serde.canonical_json({"b": (1, 2), "a": 1})
        b = serde.canonical_json({"a": 1, "b": [1, 2]})
        assert a == b

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            MicroRow.from_json({**_micro().to_json(), "extra": 1})

    def test_wrong_shape_names_the_field(self):
        with pytest.raises(TypeError, match=r"Table1Result\.sizes: expected a JSON dict"):
            Table1Result.from_json({"sizes": []})
        with pytest.raises(TypeError, match=r"Figure5Result\.rows: BreakdownRow\.breakdown"):
            Figure5Result.from_json({"rows": [[["base", 0.1, "ccpp"], {
                **_bar().to_json(), "breakdown": [1.0]}]]})


class TestRoundTrips:
    def test_micro_row(self):
        roundtrip(_micro())

    def test_breakdown_row(self):
        roundtrip(_bar())

    def test_table4(self):
        r = Table4Result(
            cc={"0-Word": _micro()}, sc={"GP 2-Word R/W": _micro("GP 2-Word R/W", 56.8)},
            am_rtt_us=54.4, mpl_rtt_us=None,
        )
        assert roundtrip(r).render() == r.render()

    def test_figure5_tuple_and_float_keys(self):
        r = Figure5Result(
            rows={("base", 0.1, "ccpp"): _bar(), ("base", 0.1, "splitc"): _bar(lang="splitc")},
            per_edge_us={("base", 0.1, "ccpp"): 2.5, ("base", 0.1, "splitc"): 1.25},
        )
        back = roundtrip(r)
        assert back.ratio("base", 0.1) == pytest.approx(2.0)
        assert back.render() == r.render()

    def test_figure6(self):
        r = Figure6Result(rows={("lu 128", "splitc"): _bar("lu 128", "splitc"),
                                ("lu 128", "ccpp"): _bar("lu 128", "ccpp")})
        assert roundtrip(r).render() == r.render()

    def test_nexus(self):
        r = NexusCompareResult(tham_us={"lu": 100.0}, nexus_us={"lu": 550.0})
        assert roundtrip(r).speedup("lu") == pytest.approx(5.5)

    def test_ablations_float_keyed_sweep(self):
        r = AblationResult(
            rows=[("stub caching", "0-Word RMI", 76.2, 110.4)],
            contended=5, uncontended=95,
            interrupt_sweep={5.0: 70.1, 50.0: 90.2},
            polling_baseline_us=76.2,
        )
        back = roundtrip(r)
        assert back.rows[0] == ("stub caching", "0-Word RMI", 76.2, 110.4)
        assert back.contentionless_fraction == pytest.approx(0.95)

    def test_faults_nested_float_int_keys(self):
        cell = {"rtt_us": 60.0, "retransmits": 3, "acks": 12}
        r = FaultAblationResult(
            rtt_cells={0.0: {1: dict(cell)}, 0.1: {1: dict(cell), 2: dict(cell)}},
            em3d_cells={0.0: {1: {"elapsed_us": 1.0, "retransmits": 0, "net_us": 0.5}},
                        0.1: {1: {"elapsed_us": 2.0, "retransmits": 5, "net_us": 1.5},
                              2: {"elapsed_us": 2.1, "retransmits": 4, "net_us": 1.4}}},
            clean_rtt_us=54.4, clean_em3d_us=1234.0,
        )
        back = roundtrip(r)
        assert list(back.rtt_cells) == [0.0, 0.1]
        assert back.rtt_cells[0.1][2]["acks"] == 12

    def test_scaling(self):
        r = ScalingResult(points=[ScalingPoint(20, 74.8, 206.8), ScalingPoint(200, 118.0, 638.8)])
        assert roundtrip(r).ratios() == pytest.approx(r.ratios())

    def test_scorecard(self):
        r = Scorecard(checks=[Check("AM RTT", "55 us", "54.40", True),
                              Check("MPL RTT", "88 us", "91.00", False)])
        back = roundtrip(r)
        assert back.passed == 1 and back.all_ok is False

    def test_table1(self):
        r = Table1Result(sizes={"CC++ runtime": CodeSize(100, 80, 7)})
        assert roundtrip(r).render() == r.render()

    def test_metrics_report(self):
        r = MetricsReport(
            sections={"am rtt clean": {"am.rtt_us": {
                "count": 50, "mean": 54.4, "p50": 54.0, "p90": 55.0,
                "p99": 56.0, "min": 53.0, "max": 57.0}}},
            gauges={"em3d.elapsed_us": 123.0},
        )
        back = roundtrip(r)
        assert back.csv() == r.csv()
