"""Tests for topology generators, splitting, and validation."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.topology import (
    TopologyError,
    all_sinks_are_leaves,
    balanced_bipartition_topology,
    binary_merge_tree,
    chain_topology,
    nearest_neighbor_topology,
    split_high_degree_steiner,
    star_topology,
    validate_topology,
)
from repro.topology import builders

coords = st.integers(min_value=0, max_value=1000)
point_lists = st.lists(
    st.builds(Point, st.floats(0, 1000), st.floats(0, 1000)),
    min_size=1,
    max_size=40,
)


def grid_points(k):
    return [Point(i % k, i // k) for i in range(k * k)]


def dense_merge_order(sinks):
    """Reference oracle: the dense m x m distance matrix with a full
    ``argmin`` per merge -- the loop the cached-partner merge replaced,
    kept verbatim so every merge sequence is checked against it."""
    m = len(sinks)
    reps_u = np.array([p.u for p in sinks], dtype=float)
    reps_v = np.array([p.v for p in sinks], dtype=float)
    # Chebyshev distance in (u, v) == Manhattan distance in (x, y).
    dist = np.maximum(
        np.abs(reps_u[:, None] - reps_u[None, :]),
        np.abs(reps_v[:, None] - reps_v[None, :]),
    )
    np.fill_diagonal(dist, np.inf)

    # slot -> current cluster token occupying that matrix row/column
    token_of_slot = list(range(m))
    active = np.ones(m, dtype=bool)
    merges: list[tuple[int, int]] = []
    next_token = m

    for _ in range(m - 1):
        flat = np.argmin(dist)
        a, b = divmod(int(flat), m)
        merges.append((token_of_slot[a], token_of_slot[b]))
        # Merge b into a's slot: representative is the midpoint.
        reps_u[a] = (reps_u[a] + reps_u[b]) / 2.0
        reps_v[a] = (reps_v[a] + reps_v[b]) / 2.0
        token_of_slot[a] = next_token
        next_token += 1
        active[b] = False
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        d_new = np.maximum(
            np.abs(reps_u - reps_u[a]), np.abs(reps_v - reps_v[a])
        )
        d_new[~active] = np.inf
        d_new[a] = np.inf
        dist[a, :] = d_new
        dist[:, a] = d_new
    return merges


# Sink sets rich in ties: duplicates, collinear and diagonal runs, small
# integer grids, the smallest sizes, general floats, and NaN locations.
_few = st.sampled_from([Point(0, 0), Point(3, 1), Point(3, 1), Point(1, 3), Point(2, 2)])
tie_heavy_sinks = st.one_of(
    st.lists(_few, min_size=1, max_size=30),
    st.lists(st.integers(0, 12), min_size=1, max_size=30).map(
        lambda ts: [Point(t, 0) for t in ts]
    ),
    st.lists(st.integers(-8, 8), min_size=1, max_size=30).map(
        lambda ts: [Point(t, t) for t in ts]
    ),
    st.lists(
        st.builds(Point, st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.builds(Point, st.integers(0, 3), st.integers(0, 3)),
        min_size=3,
        max_size=12,
    ),
    st.lists(st.builds(Point, coords, coords), min_size=1, max_size=3),
    point_lists,
    # NaN locations (a broken pin file): ``argmin`` takes the first NaN.
    st.lists(
        st.one_of(
            st.builds(Point, st.integers(0, 4), st.integers(0, 4)),
            st.sampled_from([Point(math.nan, math.nan), Point(math.nan, 1)]),
        ),
        min_size=1,
        max_size=20,
    ),
)

#: Cache budgets that put the same inputs on both sides of the small-m
#: cut: the default keeps the whole matrix up to 256 sinks; 8 and 1 force
#: the cached-partner loop with multi-row and single-row cache blocks.
BLOCKS = [builders._BLOCK, 8, 1]


class TestNearestNeighbor:
    def test_single_sink_free_source(self):
        t = nearest_neighbor_topology([Point(3, 3)])
        assert t.num_nodes == 2
        assert t.parent(1) == 0

    def test_single_sink_fixed_source(self):
        t = nearest_neighbor_topology([Point(3, 3)], source=Point(0, 0))
        assert t.source_location == Point(0, 0)

    def test_two_sinks_free_source(self):
        t = nearest_neighbor_topology([Point(0, 0), Point(10, 0)])
        assert t.num_nodes == 3  # root is the merge node itself
        assert t.num_steiner == 0
        assert set(t.children(0)) == {1, 2}

    def test_two_sinks_fixed_source(self):
        t = nearest_neighbor_topology(
            [Point(0, 0), Point(10, 0)], source=Point(5, 5)
        )
        assert t.num_nodes == 4
        assert t.num_steiner == 1
        assert len(t.children(0)) == 1

    def test_merges_closest_pair_first(self):
        # Points: two close together, one far — the close pair must share
        # a parent.
        t = nearest_neighbor_topology(
            [Point(0, 0), Point(1, 0), Point(100, 100)]
        )
        assert t.parent(1) == t.parent(2)

    @given(point_lists, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_full_binary_all_sinks_leaves(self, pts, with_source):
        source = Point(500, 500) if with_source else None
        t = nearest_neighbor_topology(pts, source)
        assert all_sinks_are_leaves(t)
        validate_topology(t, require_binary=True)
        # Full binary: every Steiner node has exactly 2 children.
        for k in t.steiner_ids():
            assert len(t.children(k)) == 2

    def test_deterministic(self):
        pts = grid_points(5)
        a = nearest_neighbor_topology(pts)
        b = nearest_neighbor_topology(pts)
        assert [a.parent(i) for i in range(a.num_nodes)] == [
            b.parent(i) for i in range(b.num_nodes)
        ]

    def test_zero_sinks_raises(self):
        with pytest.raises(ValueError):
            nearest_neighbor_topology([])


def _parents(t):
    return [t.parent(i) for i in range(t.num_nodes)]


class TestNearestNeighborParity:
    """The cached-partner merge reproduces the dense-argmin merge order
    bit for bit, ties included."""

    @pytest.mark.parametrize("block", BLOCKS)
    @given(tie_heavy_sinks, st.booleans())
    @settings(max_examples=80, deadline=None)
    # A merge makes slot 0 equidistant to the moved slot 1 and to slot 2:
    # the cache must take the lower slot on that tie.
    @example([Point(2, 0), Point(1, 3), Point(3, 3), Point(0, 1)], False)
    def test_same_merges_as_dense_oracle(self, block, sinks, fixed):
        expected = dense_merge_order(sinks)
        with mock.patch.object(builders, "_BLOCK", block):
            assert builders._nearest_neighbor_merge_order(sinks) == expected
            source = Point(2, 2) if fixed else None
            got = nearest_neighbor_topology(sinks, source)
        if len(sinks) > 1:
            want, _ = binary_merge_tree(sinks, expected, source)
            assert _parents(got) == _parents(want)

    @pytest.mark.parametrize(
        "sinks",
        [
            [Point(float(x), float(y))
             for x, y in np.random.default_rng(5).uniform(0, 1000, (600, 2))],
            [Point(i % 23, i // 23) for i in range(700)],  # grid, 700 > 256
            [Point(x, y)
             for x, y in np.random.default_rng(6).integers(0, 12, (400, 2))],
        ],
        ids=["uniform-600", "grid-700", "duplicates-400"],
    )
    def test_same_merges_above_the_cut(self, sinks):
        assert len(sinks) ** 2 > builders._BLOCK
        assert builders._nearest_neighbor_merge_order(sinks) == dense_merge_order(sinks)

    def test_memory_is_linear(self):
        """2048 distinct sinks build in well under the 32 MB one dense
        float64 distance matrix takes (the dense loop peaked near 100 MB)."""
        rng = np.random.default_rng(2048)
        cells = rng.choice(1_000_000, size=2048, replace=False)
        sinks = [Point(float(c % 1000), float(c // 1000)) for c in cells]
        tracemalloc.start()
        try:
            nearest_neighbor_topology(sinks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestBalancedBipartition:
    @given(point_lists, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_full_binary_all_sinks_leaves(self, pts, with_source):
        source = Point(500, 500) if with_source else None
        t = balanced_bipartition_topology(pts, source)
        assert all_sinks_are_leaves(t)
        validate_topology(t, require_binary=True)

    def test_balanced_depth(self):
        pts = grid_points(8)  # 64 sinks
        t = balanced_bipartition_topology(pts)
        max_depth = max(t.depth(i) for i in t.sink_ids())
        assert max_depth == 6  # perfectly balanced over 64 leaves

    def test_zero_sinks_raises(self):
        with pytest.raises(ValueError):
            balanced_bipartition_topology([])


class TestSplit:
    def test_star_becomes_binary(self):
        t = star_topology([Point(i, 0) for i in range(5)], source=Point(0, 5))
        split, zero_edges = split_high_degree_steiner(t)
        validate_topology(split, require_binary=False)
        for k in split.steiner_ids():
            assert len(split.children(k)) <= 2
        assert len(split.children(0)) <= 2
        # Sinks keep their ids and locations.
        for i in split.sink_ids():
            assert split.sink_location(i) == t.sink_location(i)
        # All new edges are flagged zero.
        assert all(e >= t.num_nodes for e in zero_edges)

    def test_already_binary_unchanged(self):
        t = nearest_neighbor_topology([Point(0, 0), Point(5, 5), Point(9, 0)])
        split, zero_edges = split_high_degree_steiner(t)
        assert zero_edges == frozenset()
        assert split.num_nodes == t.num_nodes

    def test_split_preserves_sink_leafness(self):
        t = star_topology([Point(i, i) for i in range(7)], source=Point(0, 0))
        split, _ = split_high_degree_steiner(t)
        assert all_sinks_are_leaves(split)

    def test_degree4_splits_once(self):
        # Root with 3 children (free source: limit 2) -> one split.
        t = star_topology([Point(0, 0), Point(2, 0), Point(1, 2)])
        split, zero_edges = split_high_degree_steiner(t)
        assert len(zero_edges) == 1
        assert len(split.children(0)) == 2


class TestValidate:
    def test_dangling_steiner_rejected(self):
        # Node 2 is a Steiner leaf.
        from repro.topology import Topology

        t = Topology([None, 0, 0], 1, [Point(0, 0)])
        with pytest.raises(TopologyError):
            validate_topology(t)

    def test_nonbinary_rejected_when_required(self):
        t = star_topology([Point(i, 0) for i in range(4)], source=Point(0, 1))
        validate_topology(t)  # fine without the binary requirement
        with pytest.raises(TopologyError):
            validate_topology(t, require_binary=True)

    def test_chain_sinks_not_leaves(self):
        t = chain_topology([Point(0, 0), Point(1, 0)])
        assert not all_sinks_are_leaves(t)

    def test_free_root_two_children_ok(self):
        t = nearest_neighbor_topology([Point(0, 0), Point(4, 4)])
        validate_topology(t, require_binary=True)
