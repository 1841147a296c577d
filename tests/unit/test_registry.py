"""Unit: the experiment registry — schemas, parsing, uniform validation."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentParamError,
    ExperimentSpec,
    ParamSpec,
)


class TestParamSpec:
    def test_scalar_parse(self):
        assert ParamSpec("n", "int", 1).parse("42") == 42
        assert ParamSpec("x", "float", 0.0).parse("0.25") == 0.25
        assert ParamSpec("s", "str", "").parse("bulk") == "bulk"

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("1", True), ("yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
    ])
    def test_bool_parse(self, text, value):
        assert ParamSpec("q", "bool", True).parse(text) is value

    def test_bool_parse_rejects_garbage(self):
        with pytest.raises(ExperimentParamError, match="q"):
            ParamSpec("q", "bool", True).parse("maybe")

    def test_list_parse_is_comma_separated_tuple(self):
        assert ParamSpec("drops", "floats", ()).parse("0.0,0.01,0.1") == (0.0, 0.01, 0.1)
        assert ParamSpec("seeds", "ints", ()).parse("1,2") == (1, 2)
        assert ParamSpec("names", "strs", ()).parse("a,b") == ("a", "b")

    def test_parse_type_error_names_the_parameter(self):
        with pytest.raises(ExperimentParamError, match="'iters'"):
            ParamSpec("iters", "int", 1).parse("ten")

    def test_parse_axis_wraps_list_kinds_per_point(self):
        p = ParamSpec("drops", "floats", ())
        assert p.parse_axis("0.0,0.1") == [(0.0,), (0.1,)]
        assert ParamSpec("steps", "int", 1).parse_axis("1,2") == [1, 2]

    def test_parse_axis_rejects_empty(self):
        with pytest.raises(ExperimentParamError, match="empty"):
            ParamSpec("drops", "floats", ()).parse_axis("")

    def test_choices_check(self):
        p = ParamSpec("version", "str", "bulk", choices=("base", "bulk"))
        assert p.check("base") == "base"
        with pytest.raises(ExperimentParamError, match="ghost"):
            p.check("ghost")

    def test_choices_check_elements_of_list_kinds(self):
        p = ParamSpec("versions", "strs", (), choices=("base", "ghost"))
        assert p.check(("base",)) == ("base",)
        with pytest.raises(ExperimentParamError, match="'bulk'"):
            p.check(("base", "bulk"))

    def test_check_normalizes_lists_to_tuples(self):
        assert ParamSpec("sizes", "ints", ()).check([20, 200]) == (20, 200)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ParamSpec("x", "complex", None)


class TestBuiltinRegistry:
    def test_every_artifact_registered(self):
        assert len(registry.ARTIFACT_NAMES) == 14
        for name in registry.ARTIFACT_NAMES:
            spec = registry.get(name)
            assert spec.name == name
            assert callable(spec.run_fn())
            assert isinstance(spec.result_class(), type)

    def test_specs_in_canonical_order(self):
        names = [s.name for s in registry.specs()][: len(registry.ARTIFACT_NAMES)]
        assert tuple(names) == registry.ARTIFACT_NAMES

    def test_unknown_artifact(self):
        with pytest.raises(KeyError, match="figure7"):
            registry.get("figure7")

    def test_unknown_param_fails_uniformly_for_every_spec(self):
        """The old CLI special-cased table4's --scenario; now every spec
        rejects a foreign parameter the same way."""
        for spec in registry.specs():
            with pytest.raises(ExperimentParamError, match="no parameter"):
                spec.validate({"definitely_not_a_param": 1})

    def test_validate_merges_defaults(self):
        spec = registry.get("faults")
        params = spec.validate({"iters": 5})
        assert params["iters"] == 5
        assert params["drops"] == (0.0, 0.01, 0.10)
        assert params["seeds"] == (1, 2)

    def test_table4_scenario_validator(self):
        spec = registry.get("table4")
        assert spec.validate({"scenarios": ("0-Word", "am-rtt")})["scenarios"] == (
            "0-Word", "am-rtt",
        )
        with pytest.raises(ExperimentParamError, match="unknown scenario"):
            spec.validate({"scenarios": ("7-Word",)})

    def test_figure5_versions_choices(self):
        with pytest.raises(ExperimentParamError, match="'warp'"):
            registry.get("figure5").validate({"versions": ("warp",)})

    def test_nexus_file_stem(self):
        assert registry.get("nexus").file_stem == "nexus_compare"

    def test_spec_run_validates_then_runs(self):
        result = registry.get("scaling").run(sizes=(20,))
        assert len(result.points) == 1 and result.points[0].words == 20
        with pytest.raises(ExperimentParamError):
            registry.get("scaling").run(bogus=1)

    def test_register_adhoc_spec(self):
        spec = ExperimentSpec(
            name="adhoc-test", title="t", module="repro.experiments.table1",
            result_type="Table1Result",
        )
        registry.register(spec)
        try:
            assert registry.get("adhoc-test") is spec
            assert spec in registry.specs()
        finally:
            registry._REGISTRY.pop("adhoc-test")
