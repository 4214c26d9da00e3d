"""RSM: terms, fitting, ANOVA, surface analysis, stepwise, CV."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.doe import central_composite, latin_hypercube, two_level_factorial
from repro.core.rsm import (
    ModelSpec,
    Term,
    anova_table,
    backward_eliminate,
    fit_response_surface,
    kfold_rmse,
    loo_residuals,
    press,
)
from repro.errors import FitError


class TestTerm:
    def test_intercept(self):
        t = Term((0, 0))
        assert t.is_intercept and t.order == 0
        assert np.allclose(t.evaluate(np.zeros((3, 2))), 1.0)

    def test_evaluate_monomial(self):
        t = Term((1, 2))
        x = np.array([[2.0, 3.0]])
        assert t.evaluate(x)[0] == pytest.approx(2.0 * 9.0)

    def test_derivative(self):
        coef, reduced = Term((1, 2)).derivative(1)
        assert coef == 2.0
        assert reduced.powers == (1, 1)

    def test_derivative_of_absent_factor(self):
        coef, _ = Term((1, 0)).derivative(1)
        assert coef == 0.0

    def test_names(self):
        assert Term((1, 0, 2)).name() == "x1*x3^2"
        assert Term((0, 0, 0)).name() == "1"
        assert Term((1, 1, 0)).name(["A", "B", "C"]) == "A*B"

    def test_parents(self):
        parents = {p.powers for p in Term((1, 1)).parents()}
        assert parents == {(0, 1), (1, 0)}
        assert Term((2, 0)).parents()[0].powers == (1, 0)

    def test_validation(self):
        with pytest.raises(FitError):
            Term(())
        with pytest.raises(FitError):
            Term((-1, 0))


class TestModelSpec:
    def test_term_counts(self):
        assert ModelSpec.linear(4).p == 5
        assert ModelSpec.interaction(4).p == 5 + 6
        assert ModelSpec.quadratic(4).p == 5 + 6 + 4
        assert ModelSpec.cubic(3).p == 10 + 3

    def test_build_matrix_shape(self):
        spec = ModelSpec.quadratic(3)
        x = np.random.default_rng(0).uniform(-1, 1, (7, 3))
        assert spec.build_matrix(x).shape == (7, spec.p)

    def test_intercept_column_first(self):
        spec = ModelSpec.linear(2)
        x = np.array([[0.5, -0.5]])
        assert spec.build_matrix(x)[0, 0] == 1.0

    def test_without(self):
        spec = ModelSpec.linear(2)
        reduced = spec.without(spec.terms[1])
        assert reduced.p == 2

    def test_children_of(self):
        spec = ModelSpec.quadratic(2)
        main = spec.terms[1]  # x1
        children = {t.powers for t in spec.children_of(main)}
        assert (1, 1) in children and (2, 0) in children

    def test_duplicate_terms_rejected(self):
        with pytest.raises(FitError):
            ModelSpec([Term((0, 0)), Term((0, 0))])

    def test_mixed_k_rejected(self):
        with pytest.raises(FitError):
            ModelSpec([Term((0, 0)), Term((1,))])


def _stacked_terms(spec, x):
    """The reference model matrix: one :meth:`Term.evaluate` per term."""
    return np.column_stack([t.evaluate(x) for t in spec.terms])


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@st.composite
def _models(draw):
    k = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["linear", "interaction", "quadratic", "cubic"]))
    spec = getattr(ModelSpec, family)(k)
    # Stepwise-style reductions: drop some terms, keep at least one.
    for _ in range(draw(st.integers(0, spec.p - 1))):
        spec = spec.without(draw(st.sampled_from(spec.terms)))
    return spec


_coded = st.one_of(
    st.sampled_from([-1.0, 1.0, 0.0, -0.0]),
    st.floats(-1.0, 1.0),
    st.floats(-3.0, 3.0),
)


def _points(k):
    return st.integers(0, 12).flatmap(
        lambda n: st.lists(
            st.lists(_coded, min_size=k, max_size=k), min_size=n, max_size=n
        ).map(lambda rows: np.array(rows, dtype=float).reshape(n, k))
    )


class TestCompiledModelMatrix:
    """``build_matrix`` runs a precompiled factor plan; it must equal
    the per-term evaluation bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_standard_and_reduced_models(self, data):
        spec = data.draw(_models())
        x = data.draw(_points(spec.k))
        assert _bits(spec.build_matrix(x)) == _bits(_stacked_terms(spec, x))

    @settings(max_examples=100, deadline=None)
    @given(_points(3))
    def test_hand_built_mixed_terms(self, x):
        spec = ModelSpec(
            [
                Term((0, 0, 0)),
                Term((1, 1, 1)),  # x1*x2*x3
                Term((2, 1, 0)),  # x1^2*x2
                Term((0, 3, 2)),
                Term((4, 0, 0)),
            ]
        )
        assert _bits(spec.build_matrix(x)) == _bits(_stacked_terms(spec, x))

    def test_single_point_and_large_grid(self):
        spec = ModelSpec.quadratic(5)
        rng = np.random.default_rng(3)
        for x in (rng.uniform(-1, 1, 5), rng.uniform(-1, 1, (5000, 5))):
            expected = _stacked_terms(spec, np.atleast_2d(x))
            assert _bits(spec.build_matrix(x)) == _bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["identity", "log1p"]))
    def test_transformed_predict(self, data, transform):
        from repro.core.rsm.surface import ResponseSurface
        from repro.core.rsm.transforms import TransformedSurface

        spec = data.draw(_models())
        x = data.draw(_points(spec.k))
        coefficients = np.array(
            data.draw(
                st.lists(st.floats(-5.0, 5.0), min_size=spec.p, max_size=spec.p)
            )
        )
        base = ResponseSurface(
            spec, coefficients, tuple(f"x{j}" for j in range(spec.k)),
            stats=None, x_train=np.empty((0, spec.k)), y_train=np.empty(0),
        )
        surface = TransformedSurface(base, transform)
        z = _stacked_terms(spec, x) @ coefficients
        expected = z if transform == "identity" else np.maximum(np.expm1(z), 0.0)
        assert _bits(surface.predict(x)) == _bits(expected)

    def test_column_count_still_checked(self):
        with pytest.raises(FitError):
            ModelSpec.linear(3).build_matrix(np.zeros((2, 2)))


class TestFitRecovery:
    """OLS must recover known polynomial coefficients."""

    def _make_data(self, noise=0.0, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = latin_hypercube(n, 2, seed=seed).matrix
        y = (
            1.0
            + 2.0 * x[:, 0]
            - 3.0 * x[:, 1]
            + 0.5 * x[:, 0] * x[:, 1]
            - 1.5 * x[:, 1] ** 2
        )
        return x, y + rng.normal(0.0, noise, n)

    def test_exact_recovery_noise_free(self):
        x, y = self._make_data()
        surf = fit_response_surface(x, y, ModelSpec.quadratic(2))
        expected = {
            "1": 1.0,
            "x1": 2.0,
            "x2": -3.0,
            "x1*x2": 0.5,
            "x1^2": 0.0,
            "x2^2": -1.5,
        }
        for name, coef, *_ in surf.coefficient_table():
            assert coef == pytest.approx(expected[name], abs=1e-9)
        assert surf.stats.r_squared == pytest.approx(1.0)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_linear_recovery_property(self, b0, b1, b2):
        x = latin_hypercube(20, 2, seed=7).matrix
        y = b0 + b1 * x[:, 0] + b2 * x[:, 1]
        surf = fit_response_surface(x, y, ModelSpec.linear(2))
        assert surf.coefficients == pytest.approx([b0, b1, b2], abs=1e-8)

    def test_noisy_fit_significant_terms(self):
        x, y = self._make_data(noise=0.05, n=60)
        surf = fit_response_surface(x, y, ModelSpec.quadratic(2))
        table = {row[0]: row for row in surf.coefficient_table()}
        # Strong terms highly significant, null term not.
        assert table["x1"][4] < 1e-6
        assert table["x1^2"][4] > 0.01

    def test_underdetermined_rejected(self):
        x = latin_hypercube(4, 2, seed=1).matrix
        with pytest.raises(FitError):
            fit_response_surface(x, np.zeros(4), ModelSpec.quadratic(2))

    def test_aliased_design_rejected(self):
        # A 2-level factorial cannot identify pure quadratics.
        x = two_level_factorial(2).replicated(3).matrix
        with pytest.raises(FitError, match="rank"):
            fit_response_surface(x, np.zeros(12), ModelSpec.quadratic(2))

    def test_nonfinite_rejected(self):
        x = latin_hypercube(10, 2, seed=2).matrix
        y = np.zeros(10)
        y[3] = np.nan
        with pytest.raises(FitError):
            fit_response_surface(x, y, ModelSpec.linear(2))

    def test_saturated_fit_has_nan_inference(self):
        x = latin_hypercube(3, 2, seed=3).matrix
        y = np.array([1.0, 2.0, 3.0])
        surf = fit_response_surface(x, y, ModelSpec.linear(2))
        assert np.all(np.isnan(surf.stats.p_values))


class TestAnova:
    def _fit(self, noise=0.02):
        rng = np.random.default_rng(5)
        design = central_composite(2, n_center=5)
        x = design.matrix
        y = 1 + 2 * x[:, 0] + x[:, 1] ** 2 + rng.normal(0, noise, x.shape[0])
        return fit_response_surface(x, y, ModelSpec.quadratic(2))

    def test_ss_identity(self):
        table = anova_table(self._fit())
        assert table.row("total").sum_squares == pytest.approx(
            table.row("model").sum_squares + table.row("residual").sum_squares
        )

    def test_lof_plus_pure_error(self):
        table = anova_table(self._fit())
        assert table.row("residual").sum_squares == pytest.approx(
            table.row("lack-of-fit").sum_squares
            + table.row("pure-error").sum_squares
        )

    def test_dof_identity(self):
        table = anova_table(self._fit())
        assert (
            table.row("model").dof + table.row("residual").dof
            == table.row("total").dof
        )

    def test_model_significant(self):
        table = anova_table(self._fit())
        assert table.row("model").p_value < 1e-6

    def test_adequate_model_lof_insignificant(self):
        # Quadratic data fitted with a quadratic model: LoF ~ noise.
        table = anova_table(self._fit())
        lof = table.row("lack-of-fit")
        assert lof.p_value > 0.01 or np.isnan(lof.p_value)

    def test_inadequate_model_flagged(self):
        rng = np.random.default_rng(6)
        design = central_composite(2, n_center=5)
        x = design.matrix
        # Strong pure cubic: a quadratic model must show lack of fit.
        y = 5 * x[:, 0] ** 3 + rng.normal(0, 0.01, x.shape[0])
        surf = fit_response_surface(x, y, ModelSpec.quadratic(2))
        table = anova_table(surf)
        assert table.row("lack-of-fit").p_value < 0.01

    def test_format_renders(self):
        text = anova_table(self._fit()).format()
        assert "lack-of-fit" in text and "pure-error" in text

    def test_unknown_row_rejected(self):
        with pytest.raises(FitError):
            anova_table(self._fit()).row("bogus")


class TestSurfaceAnalysis:
    def _paraboloid(self, sign=-1.0):
        # y = 3 + sign*(x1-0.2)^2 + sign*2*(x2+0.1)^2.
        x = latin_hypercube(30, 2, seed=8).matrix
        y = (
            3.0
            + sign * (x[:, 0] - 0.2) ** 2
            + sign * 2.0 * (x[:, 1] + 0.1) ** 2
        )
        return fit_response_surface(x, y, ModelSpec.quadratic(2))

    def test_gradient_matches_numeric(self):
        surf = self._paraboloid()
        x0 = np.array([0.3, -0.4])
        eps = 1e-6
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            numeric = (
                surf.predict_one(x0 + dx) - surf.predict_one(x0 - dx)
            ) / (2 * eps)
            assert surf.gradient(x0)[j] == pytest.approx(numeric, abs=1e-5)

    def test_stationary_point_location(self):
        surf = self._paraboloid()
        xs = surf.stationary_point()
        assert xs == pytest.approx([0.2, -0.1], abs=1e-6)

    def test_maximum_classified(self):
        ca = self._paraboloid(sign=-1.0).canonical_analysis()
        assert ca.nature == "maximum"
        assert ca.inside_region
        assert ca.stationary_value == pytest.approx(3.0, abs=1e-9)

    def test_minimum_classified(self):
        assert self._paraboloid(sign=+1.0).canonical_analysis().nature == "minimum"

    def test_saddle_classified(self):
        x = latin_hypercube(30, 2, seed=9).matrix
        y = x[:, 0] ** 2 - x[:, 1] ** 2
        surf = fit_response_surface(x, y, ModelSpec.quadratic(2))
        assert surf.canonical_analysis().nature == "saddle"

    def test_steepest_ascent_improves(self):
        surf = self._paraboloid(sign=-1.0)
        path = surf.steepest_ascent_path(step=0.05, n_points=8)
        values = [surf.predict_one(p) for p in path]
        assert values[-1] > values[0]

    def test_cubic_rejects_canonical(self):
        x = latin_hypercube(30, 2, seed=10).matrix
        y = x[:, 0] ** 3
        surf = fit_response_surface(x, y, ModelSpec.cubic(2))
        with pytest.raises(FitError):
            surf.canonical_analysis()

    def test_summary_renders(self):
        assert "R2" in self._paraboloid().summary()


class TestStepwise:
    def test_drops_null_terms(self):
        rng = np.random.default_rng(11)
        x = latin_hypercube(50, 3, seed=11).matrix
        y = 2 + 3 * x[:, 0] + rng.normal(0, 0.05, 50)
        surf = backward_eliminate(x, y, ModelSpec.quadratic(3), alpha=0.05)
        names = surf.model.term_names()
        assert "x1" in names
        assert len(names) < ModelSpec.quadratic(3).p

    def test_hierarchy_keeps_parents(self):
        x = latin_hypercube(50, 2, seed=12).matrix
        # Pure interaction effect: x1, x2 mains are null but must be
        # kept while x1*x2 stays.
        y = 4.0 * x[:, 0] * x[:, 1]
        surf = backward_eliminate(x, y, ModelSpec.quadratic(2), alpha=0.05)
        names = surf.model.term_names()
        assert "x1*x2" in names
        assert "x1" in names and "x2" in names

    def test_alpha_validation(self):
        x = latin_hypercube(20, 2, seed=13).matrix
        with pytest.raises(FitError):
            backward_eliminate(x, np.zeros(20), ModelSpec.linear(2), alpha=1.5)


class TestCrossValidation:
    def _surface(self, noise=0.1):
        rng = np.random.default_rng(14)
        x = latin_hypercube(30, 2, seed=14).matrix
        y = 1 + x[:, 0] - 2 * x[:, 1] + rng.normal(0, noise, 30)
        return x, y, fit_response_surface(x, y, ModelSpec.linear(2))

    def test_press_at_least_sse(self):
        _, _, surf = self._surface()
        assert press(surf) >= surf.stats.sse

    def test_press_matches_stats(self):
        _, _, surf = self._surface()
        assert press(surf) == pytest.approx(surf.stats.press)

    def test_loo_residuals_exceed_plain(self):
        _, _, surf = self._surface()
        plain = surf.y_train - surf.predict(surf.x_train)
        loo = loo_residuals(surf)
        assert np.all(np.abs(loo) >= np.abs(plain) - 1e-12)

    def test_kfold_rmse_reasonable(self):
        x, y, surf = self._surface(noise=0.1)
        rmse = kfold_rmse(x, y, ModelSpec.linear(2), n_folds=5, seed=1)
        assert 0.03 < rmse < 0.4

    def test_kfold_validation(self):
        x, y, _ = self._surface()
        with pytest.raises(FitError):
            kfold_rmse(x, y, ModelSpec.linear(2), n_folds=1)
