"""Optimization on fitted response surfaces.

Because an RSM evaluation costs microseconds, the optimizers here are
deliberately exhaustive-ish: a dense coded-grid scan (which cannot miss
a basin inside the box) refined by L-BFGS-B from the best cells.
Single-response and composite-desirability variants share machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.core.desirability import CompositeDesirability
from repro.core.rsm.surface import ResponseSurface
from repro.errors import OptimizationError


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of an RSM-based optimization.

    Attributes:
        x_coded: optimizer location, coded units.
        value: objective value there (response or composite
            desirability).
        responses: per-response surface predictions at the optimum.
        evaluations: objective evaluations spent.
    """

    x_coded: np.ndarray
    value: float
    responses: dict[str, float]
    evaluations: int


def coded_grid(k: int, points_per_axis: int) -> np.ndarray:
    """The ``points_per_axis^k`` scan grid over the coded box, one
    point per row, the last factor varying fastest."""
    axes = [np.linspace(-1.0, 1.0, points_per_axis)] * k
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)


def shared_predictor(
    surfaces: Mapping, names: Sequence[str]
) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """``x -> {name: predictions}`` over several surfaces.

    Surfaces whose models have identical terms (a campaign fits every
    response with one model) share one model matrix per call; each
    surface then applies its coefficients exactly as ``predict``
    does, so the predictions are bit-identical to it.
    """
    slots: dict[tuple, int] = {}
    build_fns = []
    plan = []
    for name in names:
        surface = surfaces[name]
        terms = surface.model.terms
        if terms not in slots:
            slots[terms] = len(build_fns)
            build_fns.append(surface.model.build_matrix)
        plan.append((name, slots[terms], surface.predict_from_matrix))

    def predict(x_coded: np.ndarray) -> dict[str, np.ndarray]:
        matrices = [build(x_coded) for build in build_fns]
        return {name: apply(matrices[slot]) for name, slot, apply in plan}

    return predict


def _check_scan(points_per_axis: int, n_refine: int) -> None:
    if points_per_axis < 2:
        raise OptimizationError(
            f"points_per_axis must be >= 2, got {points_per_axis}"
        )
    if n_refine < 1:
        raise OptimizationError(f"n_refine must be >= 1, got {n_refine}")


def _refine(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maximize: bool,
) -> tuple[np.ndarray, float, int]:
    sign = -1.0 if maximize else 1.0
    counter = {"n": 0}

    def wrapped(x: np.ndarray) -> float:
        counter["n"] += 1
        return sign * objective(x)

    result = minimize(
        wrapped,
        x0,
        method="L-BFGS-B",
        bounds=[(-1.0, 1.0)] * x0.size,
        options={"maxiter": 200},
    )
    return result.x, sign * float(result.fun), counter["n"]


def optimize_surface(
    surface: ResponseSurface,
    maximize: bool = True,
    points_per_axis: int = 9,
    n_refine: int = 3,
) -> OptimizationOutcome:
    """Optimize one response over the coded box.

    Dense grid scan (``points_per_axis^k`` evaluations, vectorized)
    followed by gradient refinement from the ``n_refine`` best cells.
    """
    _check_scan(points_per_axis, n_refine)
    grid = coded_grid(surface.k, points_per_axis)
    values = surface.predict(grid)
    evaluations = grid.shape[0]
    order = np.argsort(values)
    seeds = order[::-1][:n_refine] if maximize else order[:n_refine]
    build, apply = surface.model.build_matrix, surface.predict_from_matrix

    def objective(x: np.ndarray) -> float:
        return float(apply(build(x))[0])

    best_x = grid[seeds[0]]
    best_val = float(values[seeds[0]])
    for seed in seeds:
        x_ref, val_ref, spent = _refine(objective, grid[seed], maximize)
        evaluations += spent
        better = val_ref > best_val if maximize else val_ref < best_val
        if better:
            best_x, best_val = x_ref, val_ref
    return OptimizationOutcome(
        x_coded=np.asarray(best_x, dtype=float),
        value=best_val,
        responses={"objective": best_val},
        evaluations=evaluations,
    )


def optimize_desirability(
    surfaces: Mapping[str, ResponseSurface],
    desirability: CompositeDesirability,
    points_per_axis: int = 7,
    n_refine: int = 5,
) -> OptimizationOutcome:
    """Maximize a composite desirability over several fitted surfaces.

    Args:
        surfaces: response name -> fitted surface (must cover every
            response the desirability references).
        desirability: the composite objective.
        points_per_axis: grid density for the global scan.
        n_refine: local refinements launched from the best cells.

    Raises:
        OptimizationError: missing surfaces, or no candidate with
            non-zero desirability anywhere on the grid (the constraints
            are mutually unsatisfiable within the box).
    """
    missing = set(desirability.response_names) - set(surfaces)
    if missing:
        raise OptimizationError(
            f"no surface fitted for responses: {sorted(missing)}"
        )
    _check_scan(points_per_axis, n_refine)
    names = list(desirability.response_names)
    ks = {surfaces[name].k for name in names}
    if len(ks) != 1:
        raise OptimizationError(
            "all surfaces must share the same factor space"
        )
    grid = coded_grid(ks.pop(), points_per_axis)
    predict = shared_predictor(surfaces, names)
    scores = desirability.vectorized(predict(grid))
    evaluations = grid.shape[0]
    if np.all(scores <= 0.0):
        raise OptimizationError(
            "composite desirability is zero everywhere on the scan grid; "
            "the response requirements are unsatisfiable in this region"
        )
    order = np.argsort(scores)[::-1][:n_refine]

    def predict_point(x: np.ndarray) -> dict[str, float]:
        return {name: float(v[0]) for name, v in predict(x).items()}

    def objective(x: np.ndarray) -> float:
        return desirability(predict_point(x))

    best_x = grid[order[0]]
    best_val = float(scores[order[0]])
    for seed in order:
        x_ref, val_ref, spent = _refine(objective, grid[seed], maximize=True)
        evaluations += spent
        if val_ref > best_val:
            best_x, best_val = x_ref, val_ref
    responses = predict_point(best_x)
    return OptimizationOutcome(
        x_coded=np.asarray(best_x, dtype=float),
        value=best_val,
        responses=responses,
        evaluations=evaluations,
    )
