"""The fitted response surface.

:class:`ResponseSurface` is what the paper's flow hands the designer:
a polynomial approximation of one performance indicator that evaluates
in microseconds.  Beyond prediction it implements the standard
second-order analysis toolkit: gradient and Hessian, the stationary
point, canonical (eigen) analysis classifying it as a
maximum/minimum/saddle/ridge, and the steepest-ascent path used to
walk out of an exploratory region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rsm.fit import FitStatistics
from repro.core.rsm.terms import ModelSpec, Term
from repro.errors import FitError


@dataclass(frozen=True)
class CanonicalAnalysis:
    """Second-order canonical analysis at the stationary point.

    Attributes:
        stationary_point: coded coordinates of the stationary point.
        stationary_value: predicted response there.
        eigenvalues: Hessian/2 eigenvalues (the canonical B matrix).
        eigenvectors: canonical axes (columns).
        nature: "maximum", "minimum", "saddle" or "ridge".
        inside_region: whether the point lies within the coded
            [-1, 1] box (outside means the fit is extrapolating and
            the stationary point is advisory only).
    """

    stationary_point: np.ndarray
    stationary_value: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    nature: str
    inside_region: bool


class ResponseSurface:
    """A fitted polynomial response surface over coded factors."""

    def __init__(
        self,
        model: ModelSpec,
        coefficients: np.ndarray,
        factor_names: tuple[str, ...],
        stats: FitStatistics,
        x_train: np.ndarray,
        y_train: np.ndarray,
    ):
        coefficients = np.asarray(coefficients, dtype=float).ravel()
        if coefficients.shape[0] != model.p:
            raise FitError(
                f"{coefficients.shape[0]} coefficients for {model.p} terms"
            )
        self.model = model
        self.coefficients = coefficients
        self.factor_names = factor_names
        self.stats = stats
        self.x_train = x_train
        self.y_train = y_train

    @property
    def k(self) -> int:
        return self.model.k

    # -- evaluation -------------------------------------------------------------

    def predict(self, x_coded: np.ndarray) -> np.ndarray:
        """Predict at (n, k) coded points (returns length-n vector)."""
        return self.predict_from_matrix(self.model.build_matrix(x_coded))

    def predict_from_matrix(self, xm: np.ndarray) -> np.ndarray:
        """Predict from rows of ``self.model.build_matrix`` (so surfaces
        over one model can share a model matrix)."""
        return xm @ self.coefficients

    def predict_one(self, x_coded: np.ndarray) -> float:
        """Predict at a single coded point."""
        return float(self.predict(np.atleast_2d(x_coded))[0])

    def gradient(self, x_coded: np.ndarray) -> np.ndarray:
        """Analytic gradient at one coded point."""
        x = np.asarray(x_coded, dtype=float).ravel()
        if x.shape[0] != self.k:
            raise FitError(f"point has {x.shape[0]} entries for k={self.k}")
        grad = np.zeros(self.k)
        point = x.reshape(1, -1)
        for coef, term in zip(self.coefficients, self.model.terms):
            if term.is_intercept or coef == 0.0:
                continue
            for j in range(self.k):
                factor, reduced = term.derivative(j)
                if factor:
                    grad[j] += coef * factor * float(reduced.evaluate(point)[0])
        return grad

    def hessian(self, x_coded: np.ndarray) -> np.ndarray:
        """Analytic Hessian at one coded point."""
        x = np.asarray(x_coded, dtype=float).ravel()
        point = x.reshape(1, -1)
        hess = np.zeros((self.k, self.k))
        for coef, term in zip(self.coefficients, self.model.terms):
            if term.order < 2 or coef == 0.0:
                continue
            for i in range(self.k):
                fi, ti = term.derivative(i)
                if not fi:
                    continue
                for j in range(self.k):
                    fj, tj = ti.derivative(j)
                    if fj:
                        hess[i, j] += (
                            coef * fi * fj * float(tj.evaluate(point)[0])
                        )
        return hess

    # -- second-order analysis -----------------------------------------------------

    def _require_second_order(self) -> None:
        if self.model.max_order > 2:
            raise FitError(
                "canonical analysis is defined for second-order models; "
                f"this model has order {self.model.max_order}"
            )

    def stationary_point(self) -> np.ndarray:
        """Coded coordinates where the gradient vanishes.

        Raises:
            FitError: for models above order 2 or a singular Hessian
                (a perfectly flat ridge has no unique stationary
                point).
        """
        self._require_second_order()
        origin = np.zeros(self.k)
        grad0 = self.gradient(origin)
        hess = self.hessian(origin)
        try:
            return np.linalg.solve(hess, -grad0)
        except np.linalg.LinAlgError:
            raise FitError(
                "singular Hessian: the surface has no unique stationary "
                "point (flat ridge)"
            ) from None

    def canonical_analysis(self, ridge_tolerance: float = 1e-6) -> CanonicalAnalysis:
        """Classify the stationary point by Hessian eigenstructure."""
        self._require_second_order()
        xs = self.stationary_point()
        hess = self.hessian(np.zeros(self.k))
        eigenvalues, eigenvectors = np.linalg.eigh(hess / 2.0)
        scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
        near_zero = np.abs(eigenvalues) <= ridge_tolerance * max(scale, 1e-300)
        if np.any(near_zero):
            nature = "ridge"
        elif np.all(eigenvalues < 0.0):
            nature = "maximum"
        elif np.all(eigenvalues > 0.0):
            nature = "minimum"
        else:
            nature = "saddle"
        return CanonicalAnalysis(
            stationary_point=xs,
            stationary_value=self.predict_one(xs),
            eigenvalues=eigenvalues,
            eigenvectors=eigenvectors,
            nature=nature,
            inside_region=bool(np.all(np.abs(xs) <= 1.0)),
        )

    def steepest_ascent_path(
        self, step: float = 0.1, n_points: int = 10, descend: bool = False
    ) -> np.ndarray:
        """Gradient-following path from the origin, coded units.

        Classical RSM practice for walking an experiment toward better
        regions; each point re-evaluates the local gradient.
        """
        if step <= 0.0:
            raise FitError(f"step must be > 0, got {step}")
        if n_points < 1:
            raise FitError(f"n_points must be >= 1, got {n_points}")
        sign = -1.0 if descend else 1.0
        path = np.zeros((n_points + 1, self.k))
        x = np.zeros(self.k)
        for i in range(1, n_points + 1):
            grad = self.gradient(x)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0:
                path[i:] = x
                break
            x = x + sign * step * grad / norm
            path[i] = x
        return path

    # -- reporting ---------------------------------------------------------------------

    def coefficient_table(self) -> list[tuple[str, float, float, float, float]]:
        """Rows of (term, coefficient, std error, t, p)."""
        names = self.model.term_names(self.factor_names)
        return [
            (name, float(b), float(se), float(t), float(pv))
            for name, b, se, t, pv in zip(
                names,
                self.coefficients,
                self.stats.std_errors,
                self.stats.t_values,
                self.stats.p_values,
            )
        ]

    def summary(self) -> str:
        """Multi-line fit summary for reports."""
        s = self.stats
        lines = [
            f"response surface: {self.model.describe()}",
            (
                f"n={s.n}  R2={s.r_squared:.4f}  adjR2={s.adj_r_squared:.4f}  "
                f"predR2={s.pred_r_squared:.4f}  RMSE={s.rmse:.4g}"
            ),
            f"{'term':<24} {'coef':>12} {'se':>10} {'t':>8} {'p':>8}",
        ]
        for name, b, se, t, pv in self.coefficient_table():
            lines.append(
                f"{name:<24} {b:>12.4g} {se:>10.3g} {t:>8.2f} {pv:>8.4f}"
            )
        return "\n".join(lines)
