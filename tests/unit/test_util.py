"""Unit tests for repro.util (units, stats, tables, rng)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.util.stats import OnlineStats, geometric_mean, mean, percentile
from repro.util.tables import TextTable
from repro.util.units import (
    US_PER_MS,
    US_PER_S,
    fmt_bytes,
    fmt_time_us,
    us_to_ms,
    us_to_s,
)


class TestUnits:
    def test_roundtrip_ms(self):
        assert us_to_ms(3.5 * US_PER_MS) == 3.5

    def test_roundtrip_s(self):
        assert us_to_s(0.26 * US_PER_S) == pytest.approx(0.26)

    def test_constants(self):
        assert US_PER_MS == 1_000
        assert US_PER_S == 1_000_000

    def test_fmt_time_us_unit_selection(self):
        assert fmt_time_us(88.0) == "88.0 us"
        assert fmt_time_us(1350.0) == "1.4 ms"
        assert fmt_time_us(2_910_000.0) == "2.91 s"

    def test_fmt_time_nan(self):
        assert fmt_time_us(float("nan")) == "nan"

    def test_fmt_bytes(self):
        assert fmt_bytes(160) == "160 B"
        assert fmt_bytes(4096) == "4.0 KiB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0 MiB"


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_percentile_bounds(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 4.0
        assert percentile(xs, 50) == pytest.approx(2.5)

    def test_percentile_validates_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_online_stats_matches_direct(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        st = OnlineStats()
        st.extend(xs)
        assert st.count == len(xs)
        assert st.mean == pytest.approx(mean(xs))
        direct_var = sum((x - mean(xs)) ** 2 for x in xs) / (len(xs) - 1)
        assert st.variance == pytest.approx(direct_var)
        assert st.stdev == pytest.approx(math.sqrt(direct_var))
        assert st.min == 1.0
        assert st.max == 9.0

    def test_online_stats_empty_errors(self):
        st = OnlineStats()
        with pytest.raises(ValueError):
            _ = st.mean
        with pytest.raises(ValueError):
            _ = st.min

    def test_online_stats_single_sample(self):
        st = OnlineStats()
        st.add(7.0)
        assert st.variance == 0.0


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable(["name", "value"])
        t.add_row(["x", 1.0])
        t.add_row(["longer", 22.5])
        out = t.render()
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "longer" in out
        assert "22.5" in out

    def test_title_renders_with_underline(self):
        t = TextTable(["a"], title="My Table")
        t.add_row([1])
        lines = t.render().splitlines()
        assert lines[0] == "My Table"
        assert lines[1] == "=" * len("My Table")

    def test_wrong_column_count_rejected(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_separator_renders_rule(self):
        t = TextTable(["a"])
        t.add_row([1])
        t.add_separator()
        t.add_row([2])
        lines = t.render().splitlines()
        assert any(set(line) <= {"-", "+"} for line in lines[2:])


class TestRng:
    def test_default_seed_deterministic(self):
        a = make_rng().integers(0, 1 << 30, 10)
        b = make_rng().integers(0, 1 << 30, 10)
        assert list(a) == list(b)

    def test_explicit_seed(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        c = make_rng(8).random(5)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_derive_seed_deterministic_and_salted(self):
        s1 = derive_seed(DEFAULT_SEED, 0, "em3d")
        s2 = derive_seed(DEFAULT_SEED, 0, "em3d")
        s3 = derive_seed(DEFAULT_SEED, 1, "em3d")
        s4 = derive_seed(DEFAULT_SEED, 0, "water")
        assert s1 == s2
        assert len({s1, s3, s4}) == 3

    def test_derive_seed_in_valid_range(self):
        for salt in range(20):
            s = derive_seed(123, salt)
            assert 0 <= s < 2**31 - 1

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        salts=st.lists(st.one_of(st.integers(), st.text(max_size=12)), max_size=4),
    )
    def test_derive_seed_equals_the_numpy_formula(self, seed, salts):
        """The Python-int form is bit-identical to the ``np.uint64`` form
        it replaced, on that form's whole domain."""
        assert derive_seed(seed, *salts) == _numpy_derive_seed(seed, *salts)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_derive_seed_outside_uint64_raises(self, seed):
        with pytest.raises(OverflowError):
            _numpy_derive_seed(seed)
        with pytest.raises(OverflowError):
            derive_seed(seed, "fault-plan")


def _numpy_derive_seed(seed, *salts):
    """The oracle: ``derive_seed`` as it was written on ``np.uint64``."""
    h = np.uint64(seed)
    for salt in salts:
        if isinstance(salt, str):
            salt = sum(ord(c) * 131**i for i, c in enumerate(salt)) % (2**31)
        h = np.uint64((int(h) * 6364136223846793005 + int(salt) * 1442695040888963407 + 1) % 2**64)
    return int(h % np.uint64(2**31 - 1))
