"""Desirability, Pareto, and RSM-based optimizers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.desirability import CompositeDesirability, Desirability
from repro.core.doe import latin_hypercube
from repro.core.optimize import optimize_desirability, optimize_surface
from repro.core.pareto import hypervolume_2d, pareto_front
from repro.core.rsm import ModelSpec, fit_response_surface
from repro.errors import OptimizationError


class TestDesirability:
    def test_maximize_ramp(self):
        d = Desirability("maximize", 0.0, 10.0)
        assert d(-1.0) == 0.0
        assert d(5.0) == pytest.approx(0.5)
        assert d(12.0) == 1.0

    def test_minimize_ramp(self):
        d = Desirability("minimize", 0.0, 0.1)
        assert d(0.0) == 1.0
        assert d(0.05) == pytest.approx(0.5)
        assert d(0.2) == 0.0

    def test_target_peak(self):
        d = Desirability("target", 2.0, 4.0, target=3.0)
        assert d(3.0) == 1.0
        assert d(2.5) == pytest.approx(0.5)
        assert d(3.5) == pytest.approx(0.5)
        assert d(1.0) == 0.0 and d(5.0) == 0.0

    def test_weight_shapes_ramp(self):
        strict = Desirability("maximize", 0.0, 1.0, weight=3.0)
        lax = Desirability("maximize", 0.0, 1.0, weight=0.5)
        assert strict(0.5) < 0.5 < lax(0.5)

    @given(st.floats(-100, 100))
    def test_bounded_property(self, value):
        for d in (
            Desirability("maximize", -1.0, 1.0),
            Desirability("minimize", -1.0, 1.0),
            Desirability("target", -1.0, 1.0, target=0.0),
        ):
            assert 0.0 <= d(value) <= 1.0

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_maximize_monotone(self, a, b):
        d = Desirability("maximize", -5.0, 5.0)
        lo, hi = sorted((a, b))
        assert d(lo) <= d(hi)

    @given(
        st.sampled_from(["maximize", "minimize", "target"]),
        st.sampled_from([1.0, 0.3, 2.0, 2.7]),
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(-3.0, 3.0),
                st.sampled_from([-1.0, 0.5, 1.0, -0.0]),
            ),
            max_size=40,
        ),
    )
    def test_vectorized_is_scalar_bit_for_bit(self, goal, weight, values):
        d = Desirability(
            goal, -1.0, 1.0, target=0.5 if goal == "target" else None,
            weight=weight,
        )
        expected = np.array([d(v) for v in values], dtype=float)
        actual = d.vectorized(np.array(values, dtype=float))
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(OptimizationError):
            Desirability("maximize", 1.0, 0.0)
        with pytest.raises(OptimizationError):
            Desirability("target", 0.0, 1.0)  # missing target
        with pytest.raises(OptimizationError):
            Desirability("target", 0.0, 1.0, target=2.0)
        with pytest.raises(OptimizationError):
            Desirability("maximize", 0.0, 1.0, target=0.5)
        with pytest.raises(OptimizationError):
            Desirability("best", 0.0, 1.0)


class TestCompositeDesirability:
    def _composite(self):
        return CompositeDesirability(
            {
                "rate": Desirability("maximize", 0.0, 10.0),
                "downtime": Desirability("minimize", 0.0, 0.1),
            }
        )

    def test_geometric_mean(self):
        comp = self._composite()
        score = comp({"rate": 5.0, "downtime": 0.05})
        assert score == pytest.approx(np.sqrt(0.5 * 0.5))

    def test_zero_vetoes(self):
        comp = self._composite()
        assert comp({"rate": 20.0, "downtime": 0.5}) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.floats(-2.0, 12.0),
                st.floats(-0.05, 0.15),
                st.one_of(st.floats(2.0, 4.0), st.sampled_from([3.0, 2.3])),
            ),
            max_size=40,
        ),
        st.sampled_from([None, {"downtime": 2.0}, {"rate": 0.5, "v": 3.0}]),
    )
    def test_vectorized_is_scalar_bit_for_bit(self, rows, importances):
        comp = CompositeDesirability(
            {
                "rate": Desirability("maximize", 0.0, 10.0, weight=1.5),
                "downtime": Desirability("minimize", 0.0, 0.1),
                "v": Desirability("target", 2.3, 3.5, target=3.0, weight=0.7),
            },
            importances=importances,
        )
        names = ("rate", "downtime", "v")
        columns = {
            name: np.array([row[i] for row in rows], dtype=float)
            for i, name in enumerate(names)
        }
        expected = np.array(
            [comp(dict(zip(names, row))) for row in rows], dtype=float
        )
        assert comp.vectorized(columns).tobytes() == expected.tobytes()

    def test_vectorized_requires_every_response(self):
        with pytest.raises(OptimizationError, match="missing responses"):
            self._composite().vectorized({"rate": np.zeros(3)})

    def test_importance_weights(self):
        weighted = CompositeDesirability(
            {
                "a": Desirability("maximize", 0.0, 1.0),
                "b": Desirability("maximize", 0.0, 1.0),
            },
            importances={"a": 3.0},
        )
        # a=1 (good), b=0.25 (poor): weighting toward a raises score
        # above the unweighted geometric mean.
        unweighted = CompositeDesirability(
            {
                "a": Desirability("maximize", 0.0, 1.0),
                "b": Desirability("maximize", 0.0, 1.0),
            }
        )
        values = {"a": 1.0, "b": 0.25}
        assert weighted(values) > unweighted(values)

    def test_missing_response_rejected(self):
        with pytest.raises(OptimizationError):
            self._composite()({"rate": 1.0})

    def test_validation(self):
        with pytest.raises(OptimizationError):
            CompositeDesirability({})
        with pytest.raises(OptimizationError):
            CompositeDesirability(
                {"a": Desirability("maximize", 0, 1)},
                importances={"zzz": 1.0},
            )


class TestParetoFront:
    def test_simple_front(self):
        obj = np.array(
            [
                [1.0, 1.0],  # dominated by [2, 2]
                [2.0, 2.0],
                [3.0, 0.5],
                [0.5, 3.0],
            ]
        )
        idx = pareto_front(obj, [True, True])
        assert set(idx) == {1, 2, 3}

    def test_direction_flip(self):
        obj = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert set(pareto_front(obj, [True, False])) == {0, 1}

    def test_front_is_mutually_nondominated(self):
        rng = np.random.default_rng(21)
        obj = rng.uniform(0, 1, (60, 3))
        idx = pareto_front(obj, [True, True, False])
        front = obj[idx]
        signs = np.array([1.0, 1.0, -1.0])
        work = front * signs
        for i in range(len(front)):
            for j in range(len(front)):
                if i == j:
                    continue
                dominates = np.all(work[j] >= work[i]) and np.any(
                    work[j] > work[i]
                )
                assert not dominates

    def test_duplicates_kept(self):
        obj = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert len(pareto_front(obj, [True, True])) == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(OptimizationError):
            pareto_front(np.array([[np.nan, 1.0]]), [True, True])

    def test_hypervolume_known_case(self):
        obj = np.array([[1.0, 2.0], [2.0, 1.0]])
        hv = hypervolume_2d(obj, [True, True], reference=[0.0, 0.0])
        # Union of 1x2 and 2x1 rectangles = 3.
        assert hv == pytest.approx(3.0)

    def test_hypervolume_monotone_in_points(self):
        base = np.array([[1.0, 1.0]])
        more = np.array([[1.0, 1.0], [2.0, 0.5]])
        ref = [0.0, 0.0]
        assert hypervolume_2d(more, [True, True], ref) >= hypervolume_2d(
            base, [True, True], ref
        )


class TestOptimizeSurface:
    def _surface(self):
        x = latin_hypercube(40, 2, seed=20).matrix
        y = -((x[:, 0] - 0.3) ** 2) - 2 * (x[:, 1] + 0.2) ** 2
        return fit_response_surface(x, y, ModelSpec.quadratic(2))

    def test_finds_interior_maximum(self):
        outcome = optimize_surface(self._surface(), maximize=True)
        assert outcome.x_coded == pytest.approx([0.3, -0.2], abs=1e-3)
        assert outcome.value == pytest.approx(0.0, abs=1e-6)

    def test_minimize_runs_to_boundary(self):
        outcome = optimize_surface(self._surface(), maximize=False)
        assert np.any(np.abs(outcome.x_coded) >= 1.0 - 1e-6)

    def test_stays_in_box(self):
        outcome = optimize_surface(self._surface(), maximize=False)
        assert np.all(np.abs(outcome.x_coded) <= 1.0 + 1e-9)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            optimize_surface(self._surface(), points_per_axis=1)


class TestOptimizeSurfaceEdgeCases:
    """Degenerate topologies the campaign's acquisition loop hits."""

    def _fit(self, fn, seed=31, n=60):
        x = latin_hypercube(n, 2, seed=seed).matrix
        return fit_response_surface(x, fn(x), ModelSpec.quadratic(2))

    def test_tied_grid_optima_deterministic(self):
        # y = x1^2 is symmetric: the scan grid ties at x1 = +/-1.  The
        # optimizer must return one of the tied optima with the right
        # value, and do so deterministically across calls.
        surface = self._fit(lambda x: x[:, 0] ** 2)
        first = optimize_surface(surface, maximize=True)
        second = optimize_surface(surface, maximize=True)
        assert abs(first.x_coded[0]) == pytest.approx(1.0, abs=1e-6)
        assert first.value == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(first.x_coded, second.x_coded)
        assert first.value == second.value

    def test_flat_surface_stays_in_box(self):
        # A perfectly flat response ties *every* grid cell.
        surface = self._fit(lambda x: np.full(x.shape[0], 3.0))
        outcome = optimize_surface(surface, maximize=True)
        assert outcome.value == pytest.approx(3.0, abs=1e-9)
        assert np.all(np.abs(outcome.x_coded) <= 1.0 + 1e-9)

    def test_optimum_pinned_to_box_boundary(self):
        # A linear trend drives the optimum into the corner; the
        # refinement must pin it there exactly, never step outside.
        surface = self._fit(lambda x: 2.0 * x[:, 0] - x[:, 1])
        outcome = optimize_surface(surface, maximize=True)
        assert outcome.x_coded[0] == pytest.approx(1.0, abs=1e-9)
        assert outcome.x_coded[1] == pytest.approx(-1.0, abs=1e-9)
        assert np.all(np.abs(outcome.x_coded) <= 1.0 + 1e-12)
        assert outcome.evaluations > 0

    def test_boundary_ridge_single_active_factor(self):
        # Only x1 matters: x2 ties everywhere along the optimal edge.
        surface = self._fit(lambda x: x[:, 0])
        outcome = optimize_surface(surface, maximize=True)
        assert outcome.x_coded[0] == pytest.approx(1.0, abs=1e-9)
        assert outcome.value == pytest.approx(1.0, abs=1e-6)


class TestDesirabilityZeroRegions:
    """Composite-desirability all-zero and near-all-zero regions."""

    def _surfaces(self, seed=22):
        x = latin_hypercube(40, 2, seed=seed).matrix
        rate = 5.0 + 4.0 * x[:, 0]
        downtime = 0.05 + 0.04 * x[:, 0] - 0.02 * x[:, 1]
        return {
            "rate": fit_response_surface(x, rate, ModelSpec.quadratic(2)),
            "downtime": fit_response_surface(
                x, downtime, ModelSpec.quadratic(2)
            ),
        }

    def test_all_zero_region_raises_regardless_of_density(self):
        comp = CompositeDesirability(
            {"rate": Desirability("maximize", 100.0, 200.0)}
        )
        for density in (3, 7, 15):
            with pytest.raises(OptimizationError, match="zero everywhere"):
                optimize_desirability(
                    self._surfaces(), comp, points_per_axis=density
                )

    def test_conflicting_goals_zero_region_vetoes_but_feasible_sliver_found(self):
        # rate wants x1 high, downtime wants x1 low: each part zeroes
        # out a half-space and only a band in between survives the
        # geometric-mean veto.
        comp = CompositeDesirability(
            {
                "rate": Desirability("maximize", 6.0, 9.0),
                "downtime": Desirability("minimize", 0.03, 0.07),
            }
        )
        outcome = optimize_desirability(self._surfaces(), comp)
        assert 0.0 < outcome.value <= 1.0
        # Inside the feasible band both hard constraints hold.
        assert outcome.responses["rate"] > 6.0
        assert outcome.responses["downtime"] < 0.07

    def test_narrow_sliver_missed_by_coarse_grid(self):
        # The feasible set requires rate >= 8.9, i.e. x1 >= 0.975 — a
        # sliver the interior cells of a 3-point grid miss, but the
        # boundary cell x1 = 1 catches.  Documents that feasibility
        # detection is grid-resolution-bound: callers with thin
        # feasible bands should raise points_per_axis.
        comp = CompositeDesirability(
            {"rate": Desirability("maximize", 8.9, 9.5)}
        )
        outcome = optimize_desirability(
            self._surfaces(), comp, points_per_axis=3
        )
        assert outcome.x_coded[0] == pytest.approx(1.0, abs=1e-6)
        assert outcome.value > 0.0

    def test_zero_desirability_point_never_wins(self):
        comp = CompositeDesirability(
            {
                "rate": Desirability("maximize", 6.0, 9.0),
                "downtime": Desirability("minimize", 0.03, 0.07),
            }
        )
        outcome = optimize_desirability(self._surfaces(), comp)
        assert comp(outcome.responses) == pytest.approx(
            outcome.value, rel=1e-9
        )
        assert outcome.value > 0.0


class TestOptimizeDesirability:
    def _surfaces(self):
        x = latin_hypercube(40, 2, seed=22).matrix
        rate = 5.0 + 4.0 * x[:, 0]
        downtime = 0.05 + 0.04 * x[:, 0] - 0.02 * x[:, 1]
        return {
            "rate": fit_response_surface(x, rate, ModelSpec.quadratic(2)),
            "downtime": fit_response_surface(
                x, downtime, ModelSpec.quadratic(2)
            ),
        }

    def test_balances_conflicting_goals(self):
        comp = CompositeDesirability(
            {
                "rate": Desirability("maximize", 0.0, 10.0),
                "downtime": Desirability("minimize", 0.0, 0.1),
            }
        )
        outcome = optimize_desirability(self._surfaces(), comp)
        assert 0.0 < outcome.value <= 1.0
        # x2 only helps downtime: must be pushed high.
        assert outcome.x_coded[1] == pytest.approx(1.0, abs=1e-3)
        assert set(outcome.responses) == {"rate", "downtime"}

    def test_unsatisfiable_raises(self):
        comp = CompositeDesirability(
            {"rate": Desirability("maximize", 100.0, 200.0)}
        )
        with pytest.raises(OptimizationError, match="zero everywhere"):
            optimize_desirability(self._surfaces(), comp)

    def test_missing_surface_rejected(self):
        comp = CompositeDesirability(
            {"bogus": Desirability("maximize", 0.0, 1.0)}
        )
        with pytest.raises(OptimizationError, match="no surface"):
            optimize_desirability(self._surfaces(), comp)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_refine": 0}, "n_refine must be >= 1, got 0"),
            ({"points_per_axis": 1}, "points_per_axis must be >= 2, got 1"),
            ({"points_per_axis": 0}, "points_per_axis must be >= 2, got 0"),
        ],
    )
    def test_scan_arguments_validated_like_optimize_surface(
        self, kwargs, message
    ):
        surfaces = self._surfaces()
        comp = CompositeDesirability(
            {"rate": Desirability("maximize", 0.0, 10.0)}
        )
        with pytest.raises(OptimizationError, match=message):
            optimize_desirability(surfaces, comp, **kwargs)
        with pytest.raises(OptimizationError, match=message):
            optimize_surface(surfaces["rate"], **kwargs)
