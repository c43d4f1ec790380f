import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layertree import (
    DimensionMismatch,
    GeneratorConfig,
    Point,
    PointSet,
    QueryBox,
    SplitMix64,
    brute_force_query,
    gen_points,
)
from layertree.core import box_contains
from layertree.oracle import splitmix64_next

MASK = (1 << 64) - 1


def reference_splitmix64(state):
    # independent transcription of the splitmix64 recurrence
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


class TestSplitMix64:
    def test_first_output_from_zero_state(self):
        _, out = splitmix64_next(0)
        assert out == 0xE220A8397B1DCDAF
        assert out == reference_splitmix64(0)[1]

    @given(st.integers(min_value=0, max_value=MASK))
    def test_matches_reference_recurrence(self, state):
        assert splitmix64_next(state) == reference_splitmix64(state)

    def test_same_seed_identical_streams(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]

    def test_wraps_at_maximum_state(self):
        state, out = splitmix64_next(MASK)
        assert 0 <= state <= MASK
        assert 0 <= out <= MASK
        assert (state, out) == reference_splitmix64(MASK)

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 5])
    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    def test_next_floats_is_next_float_repeated(self, seed, count):
        a, b = SplitMix64(seed), SplitMix64(seed)
        got = a.next_floats(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert [x.hex() for x in got.tolist()] == [b.next_float().hex() for _ in range(count)]
        assert a.state == b.state
        assert a.next_u64() == b.next_u64()

    def test_float_in_unit_interval(self):
        rng = SplitMix64(9)
        for _ in range(1000):
            f = rng.next_float()
            assert 0.0 <= f < 1.0


class TestGenPoints:
    def test_deterministic(self):
        cfg = GeneratorConfig(seed=7, n=50, dims=3)
        a, b = gen_points(cfg), gen_points(cfg)
        assert [p.coords for p in a] == [p.coords for p in b]

    def test_grid_side_one_is_all_zero(self):
        ps = gen_points(GeneratorConfig(seed=1, n=20, dims=2, dist="grid", grid_side=1))
        assert all(c == 0.0 for p in ps for c in p.coords)

    def test_first_coordinate_is_first_stream_output(self):
        ps = gen_points(GeneratorConfig(seed=42, n=100, dims=3))
        _, first = splitmix64_next(42)
        assert ps.by_id[0].coords[0] == first / 2**64

    def test_ids_are_generation_order(self):
        ps = gen_points(GeneratorConfig(seed=3, n=10, dims=1))
        assert [p.id for p in ps] == list(range(10))

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 5])
    @pytest.mark.parametrize("dist, side", [("uniform", 5), ("grid", 5), ("grid", 2**64),
                                            ("grid", 2**64 + 5)],
                             ids=["uniform", "grid", "grid-side-2**64", "grid-side-2**64+5"])
    def test_is_the_scalar_stream_bit_for_bit(self, seed, dist, side):
        # the vectorized generator draws what SplitMix64 draws, coordinate by
        # coordinate, for grid sides below and beyond the uint64 range
        rng = SplitMix64(seed)
        draw = rng.next_float if dist == "uniform" else lambda: float(rng.next_below(side))
        want = [[draw().hex() for _ in range(3)] for _ in range(300)]
        ps = gen_points(GeneratorConfig(seed=seed, n=300, dims=3, dist=dist, grid_side=side))
        assert [[c.hex() for c in p.coords] for p in ps] == want

    @pytest.mark.parametrize("dist, digest", [
        ("uniform", "97b6fb9afa4ab94faecea6fec9c47c98de66f51fcec8c5a0b8b7d492c84a9c1f"),
        ("grid", "9c5048f3d77eb5ed5a1041bea9776a34ae77e910150d11d3a1ae0a5f1788c0db"),
    ])
    def test_pinned_output_at_seed_2_64_minus_5(self, dist, digest):
        # sha256 of the float.hex coordinates the scalar generator drew for this config
        ps = gen_points(GeneratorConfig(seed=2**64 - 5, n=500, dims=3, dist=dist, grid_side=5))
        got = repr([[c.hex() for c in p.coords] for p in ps.by_id])
        assert hashlib.sha256(got.encode()).hexdigest() == digest

    def test_grid_duplicates_are_likely(self):
        ps = gen_points(GeneratorConfig(seed=11, n=200, dims=2, dist="grid", grid_side=4))
        coords = [p.coords for p in ps]
        assert len(set(coords)) < len(coords)

    @pytest.mark.parametrize("kw", [dict(n=0), dict(dims=0), dict(dist="normal"),
                                    dict(dist="grid", grid_side=0)])
    def test_config_validation(self, kw):
        base = dict(seed=1, n=5, dims=2)
        base.update(kw)
        with pytest.raises(ValueError):
            GeneratorConfig(**base)


class TestBruteForce:
    def test_empty_interval_box(self):
        ps = gen_points(GeneratorConfig(seed=2, n=30, dims=2))
        assert brute_force_query(ps, QueryBox((1.0, 0.0), (0.0, 1.0))) == []

    def test_bounding_box_returns_all(self):
        ps = gen_points(GeneratorConfig(seed=2, n=30, dims=2))
        assert brute_force_query(ps, QueryBox((0.0, 0.0), (1.0, 1.0))) == ps.by_id

    def test_single_point(self):
        ps = PointSet([Point((0.5, 0.5), 0)], 2)
        assert brute_force_query(ps, QueryBox((0.0, 0.0), (1.0, 1.0))) == ps.points

    def test_dimension_mismatch(self):
        ps = gen_points(GeneratorConfig(seed=2, n=5, dims=2))
        with pytest.raises(DimensionMismatch):
            brute_force_query(ps, QueryBox((0.0,), (1.0,)))

    def test_matches_pointwise_filter_and_id_order(self):
        # the vectorized filter must agree with box_contains point by point
        ps = gen_points(GeneratorConfig(seed=13, n=150, dims=3, dist="grid", grid_side=3))
        rng = SplitMix64(4)
        for _ in range(100):
            lo = tuple(rng.next_float() * 3 for _ in range(3))
            hi = tuple(rng.next_float() * 3 for _ in range(3))
            box = QueryBox(lo, hi)
            got = brute_force_query(ps, box)
            want = sorted(
                (p for p in ps if box_contains(box, p)), key=lambda p: p.id
            )
            assert got == want
            assert [p.id for p in got] == sorted(p.id for p in got)
