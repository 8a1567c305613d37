"""Tests for the bounds-guided topology generator (Section 9 future work)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebf import DelayBounds, solve_lubt, solve_zero_skew
from repro.ebf.bounds import radius_of
from repro.geometry import Point
from repro.topology import (
    all_sinks_are_leaves,
    balance_aware_topology,
    bounds_guided_topology,
    nearest_neighbor_topology,
    validate_topology,
)
from repro.topology import builders, guided
from tests.test_topology_builders import BLOCKS, tie_heavy_sinks


def random_sinks(m, seed, span=100):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.integers(0, span, (m, 2))]


def dense_guided_merge_order(sinks, lam):
    """Reference oracle: the dense-cost-matrix loop the shared
    cached-partner merge replaced, kept verbatim (returning the merge
    order instead of the topology)."""
    m = len(sinks)
    us = np.array([p.u for p in sinks], dtype=float)
    vs = np.array([p.v for p in sinks], dtype=float)
    heights = np.zeros(m)
    active = np.ones(m, dtype=bool)
    token_of_slot = list(range(m))
    next_token = m
    merges: list[tuple[int, int]] = []

    # Incrementally maintained cost matrix: O(m) update per merge.
    cost = np.maximum(
        np.abs(us[:, None] - us[None, :]), np.abs(vs[:, None] - vs[None, :])
    )
    np.fill_diagonal(cost, np.inf)

    def refresh_row(a: int) -> None:
        row = np.maximum(np.abs(us - us[a]), np.abs(vs - vs[a]))
        row += lam * np.abs(heights - heights[a])
        row[~active] = np.inf
        row[a] = np.inf
        cost[a, :] = row
        cost[:, a] = row

    for _ in range(m - 1):
        a, b = divmod(int(np.argmin(cost)), m)
        d = max(abs(us[a] - us[b]), abs(vs[a] - vs[b]))
        merges.append((token_of_slot[a], token_of_slot[b]))
        # Merged representative: the (height-weighted) balance point, and
        # the ZST-merge height estimate.
        h_a, h_b = heights[a], heights[b]
        if abs(h_a - h_b) <= d:
            t = (d + h_b - h_a) / (2.0 * d) if d > 0 else 0.5
        else:
            t = 0.0 if h_a > h_b else 1.0
        us[a] = us[a] * (1 - t) + us[b] * t
        vs[a] = vs[a] * (1 - t) + vs[b] * t
        heights[a] = max(h_a, h_b, (d + h_a + h_b) / 2.0)
        token_of_slot[a] = next_token
        next_token += 1
        active[b] = False
        cost[b, :] = np.inf
        cost[:, b] = np.inf
        refresh_row(a)

    return merges


class TestParity:
    """The guided generator runs on the shared cached-partner loop and
    reproduces the dense-matrix merge order bit for bit."""

    @pytest.mark.parametrize("block", BLOCKS)
    @given(tie_heavy_sinks, st.floats(0.0, 10.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_merges_as_dense_oracle(self, block, sinks, lam, fixed):
        expected = dense_guided_merge_order(sinks, lam)
        with mock.patch.object(builders, "_BLOCK", block):
            assert guided._guided_merge_order(sinks, lam) == expected
            if len(sinks) > 1 and lam > 0.0:
                source = Point(2, 2) if fixed else None
                got = balance_aware_topology(sinks, source, balance_weight=lam)
                want, _ = builders.binary_merge_tree(sinks, expected, source)
                assert [got.parent(i) for i in range(got.num_nodes)] == [
                    want.parent(i) for i in range(want.num_nodes)
                ]

    def test_same_merges_above_the_cut(self):
        sinks = random_sinks(500, 9, span=60)  # duplicates and ties
        assert len(sinks) ** 2 > builders._BLOCK
        for lam in (0.25, 1.0):
            assert guided._guided_merge_order(sinks, lam) == (
                dense_guided_merge_order(sinks, lam)
            )


class TestStructure:
    @given(st.integers(1, 25), st.integers(0, 500), st.booleans(),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_valid_sink_leaf_binary(self, m, seed, fixed, width):
        sinks = random_sinks(m, seed)
        src = Point(50.0, 50.0) if fixed else None
        # Window width as a fraction of a nominal radius of ~100.
        bounds = DelayBounds.uniform(m, 100.0, 100.0 + width * 100.0)
        topo = bounds_guided_topology(sinks, bounds, src)
        assert all_sinks_are_leaves(topo)
        validate_topology(topo, require_binary=True)

    def test_zero_balance_weight_matches_nn(self):
        sinks = random_sinks(15, 3)
        guided = balance_aware_topology(sinks, Point(50, 50), balance_weight=0.0)
        nn = nearest_neighbor_topology(sinks, Point(50, 50))
        assert [guided.parent(i) for i in range(guided.num_nodes)] == [
            nn.parent(i) for i in range(nn.num_nodes)
        ]

    def test_loose_window_matches_nn(self):
        sinks = random_sinks(12, 5)
        src = Point(50.0, 50.0)
        nn = nearest_neighbor_topology(sinks, src)
        r = radius_of(nn)
        loose = DelayBounds.uniform(12, 0.0, 5 * r)  # window >> radius
        guided = bounds_guided_topology(sinks, loose, src)
        assert [guided.parent(i) for i in range(guided.num_nodes)] == [
            nn.parent(i) for i in range(nn.num_nodes)
        ]

    def test_single_sink(self):
        topo = bounds_guided_topology(
            [Point(1, 1)], DelayBounds.uniform(1, 0, 10), Point(0, 0)
        )
        assert topo.num_nodes == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bounds_guided_topology([], DelayBounds.uniform(1, 0, 1))
        with pytest.raises(ValueError):
            bounds_guided_topology(
                [Point(0, 0)], DelayBounds.uniform(2, 0, 1)
            )
        with pytest.raises(ValueError):
            balance_aware_topology([Point(0, 0)], balance_weight=-1.0)


class TestQuality:
    def test_balance_helps_zero_skew(self):
        """On an imbalance-prone instance, the balance-aware generator
        should produce a cheaper (or equal) zero-skew tree."""
        rng = np.random.default_rng(11)
        # A dense cluster plus far-flung outliers: pure NN merges the
        # cluster first and pays elongation to reach the outliers.
        sinks = [Point(float(x), float(y)) for x, y in rng.integers(0, 20, (12, 2))]
        sinks += [Point(400, 400), Point(420, 380), Point(-380, 390)]
        src = Point(0.0, 0.0)

        plain = solve_zero_skew(nearest_neighbor_topology(sinks, src))
        balanced = solve_zero_skew(
            balance_aware_topology(sinks, src, balance_weight=1.0)
        )
        assert balanced.cost <= plain.cost * 1.02  # no worse (2% slack)

    @given(st.integers(4, 14), st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_guided_solutions_feasible(self, m, seed):
        sinks = random_sinks(m, seed)
        src = Point(50.0, 50.0)
        nn = nearest_neighbor_topology(sinks, src)
        r = radius_of(nn)
        bounds = DelayBounds.uniform(m, 0.9 * r, max(1.1 * r, r))
        topo = bounds_guided_topology(sinks, bounds, src)
        sol = solve_lubt(topo, bounds, check_bounds=False)
        assert sol.cost > 0 or m == 1
