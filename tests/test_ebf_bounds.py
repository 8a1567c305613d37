"""Tests for DelayBounds and the paper's bound conventions."""

import math

import numpy as np
import pytest

from repro.ebf import BoundsError, DelayBounds
from repro.ebf.bounds import radius_of
from repro.geometry import Point
from repro.topology import nearest_neighbor_topology, star_topology


class TestConstructors:
    def test_uniform(self):
        b = DelayBounds.uniform(3, 1.0, 2.0)
        assert b.num_sinks == 3
        assert b.window(1) == (1.0, 2.0)
        assert b.window(3) == (1.0, 2.0)

    def test_per_sink(self):
        b = DelayBounds.per_sink([(0.0, 1.0), (0.5, 2.0)])
        assert b.window(1) == (0.0, 1.0)
        assert b.window(2) == (0.5, 2.0)

    def test_per_sink_empty_raises(self):
        with pytest.raises(BoundsError):
            DelayBounds.per_sink([])

    def test_zero_skew(self):
        b = DelayBounds.zero_skew(2, 5.0)
        assert b.window(1) == (5.0, 5.0)

    def test_unbounded(self):
        b = DelayBounds.unbounded(2)
        assert b.window(1) == (0.0, math.inf)

    def test_tolerable_skew_window(self):
        """Section 6: u and skew d map to [u - d, u]."""
        b = DelayBounds.tolerable_skew(4, upper=10.0, skew=3.0)
        assert b.window(1) == (7.0, 10.0)

    def test_tolerable_skew_clamps_at_zero(self):
        b = DelayBounds.tolerable_skew(1, upper=2.0, skew=5.0)
        assert b.window(1) == (0.0, 2.0)

    def test_tolerable_negative_skew_raises(self):
        with pytest.raises(BoundsError):
            DelayBounds.tolerable_skew(1, upper=1.0, skew=-0.1)

    def test_invalid_shapes(self):
        with pytest.raises(BoundsError):
            DelayBounds(np.array([1.0]), np.array([1.0, 2.0]))

    def test_negative_lower_rejected(self):
        with pytest.raises(BoundsError):
            DelayBounds.uniform(1, -1.0, 2.0)

    def test_inverted_rejected(self):
        with pytest.raises(BoundsError):
            DelayBounds.uniform(1, 3.0, 2.0)


class TestRadius:
    def test_fixed_source_radius(self):
        topo = star_topology(
            [Point(1, 0), Point(0, 5)], source=Point(0, 0)
        )
        assert radius_of(topo) == 5.0

    def test_free_source_radius_is_half_diameter(self):
        topo = nearest_neighbor_topology([Point(0, 0), Point(10, 0), Point(5, 1)])
        assert radius_of(topo) == 5.0

    def test_normalized(self):
        topo = nearest_neighbor_topology([Point(0, 0), Point(10, 0)])
        b = DelayBounds.normalized(topo, 0.5, 1.5)
        assert b.window(1) == (2.5, 7.5)

    def test_scaled(self):
        b = DelayBounds.uniform(2, 1.0, 2.0).scaled(3.0)
        assert b.window(1) == (3.0, 6.0)
        with pytest.raises(BoundsError):
            b.scaled(0.0)


class TestValidityCheck:
    def test_eq3_fixed_source(self):
        topo = star_topology([Point(4, 3)], source=Point(0, 0))
        DelayBounds.uniform(1, 0.0, 7.0).check(topo)  # exactly dist: ok
        with pytest.raises(BoundsError):
            DelayBounds.uniform(1, 0.0, 6.0).check(topo)

    def test_eq4_free_source(self):
        topo = nearest_neighbor_topology([Point(0, 0), Point(8, 0)])
        DelayBounds.uniform(2, 0.0, 4.0).check(topo)  # radius = 4
        with pytest.raises(BoundsError):
            DelayBounds.uniform(2, 0.0, 3.9).check(topo)

    def test_sink_count_mismatch(self):
        topo = nearest_neighbor_topology([Point(0, 0), Point(8, 0)])
        with pytest.raises(BoundsError):
            DelayBounds.uniform(3, 0.0, 10.0).check(topo)

    @pytest.mark.parametrize("source", [Point(0, 0), None], ids=["eq3", "eq4"])
    @pytest.mark.parametrize("slack, ok", [(0.5, True), (2.0, False)])
    def test_check_and_bd005_share_one_floor(self, source, slack, ok):
        """``check`` and the static BD005 rule accept and reject the same
        uppers, right at the float-noise tolerance below the floor."""
        from repro.check.bounds_checks import check_bounds
        from repro.ebf.bounds import FLOOR_TOL, upper_floor

        pts = [Point(4, 3), Point(-2, 6), Point(5, -1)]
        topo = nearest_neighbor_topology(pts, source)
        floor = upper_floor(topo)
        upper = floor + 1.0
        upper[1] = floor[1] - slack * FLOOR_TOL
        bounds = DelayBounds(np.zeros(3), upper)
        bd005 = [d.locus for d in check_bounds(bounds, topo) if d.code == "BD005"]
        if ok:
            bounds.check(topo)
            assert bd005 == []
        else:
            with pytest.raises(BoundsError, match=r"Eq\. [34]"):
                bounds.check(topo)
            assert bd005 == ["sink 2"]


class TestSatisfaction:
    def test_satisfied_by(self):
        b = DelayBounds.uniform(2, 1.0, 2.0)
        assert b.satisfied_by(np.array([1.0, 2.0]))
        assert b.satisfied_by(np.array([1.5, 1.5]))
        assert not b.satisfied_by(np.array([0.5, 1.5]))
        assert not b.satisfied_by(np.array([1.5, 2.5]))

    def test_tolerance(self):
        b = DelayBounds.uniform(1, 1.0, 2.0)
        assert b.satisfied_by(np.array([0.9999999]), tol=1e-6)
