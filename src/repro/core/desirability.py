"""Derringer-Suich desirability functions.

Multi-response optimization on fitted surfaces: each response maps to a
desirability in [0, 1] (1 = ideal, 0 = unacceptable), and candidate
designs are ranked by the geometric mean of the individual
desirabilities — the geometric mean makes any single unacceptable
response veto the whole candidate, which matches how designers actually
trade off "fast reporting" against "never browns out".
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import OptimizationError


class Desirability:
    """One-response desirability (Derringer-Suich forms).

    Args:
        goal: ``"maximize"``, ``"minimize"`` or ``"target"``.
        low: value at (goal-dependent) zero desirability — for
            maximize: anything at or below is worthless; for minimize:
            the fully satisfying value; for target: lower zero point.
        high: counterpart of ``low`` (see above).
        target: required for the ``"target"`` goal.
        weight: exponent shaping the ramp (1 = linear; > 1 demands
            being close to the ideal; < 1 rewards any progress).
    """

    def __init__(
        self,
        goal: str,
        low: float,
        high: float,
        target: float | None = None,
        weight: float = 1.0,
    ):
        if goal not in ("maximize", "minimize", "target"):
            raise OptimizationError(f"unknown desirability goal {goal!r}")
        if not (low < high):
            raise OptimizationError(
                f"low ({low}) must be < high ({high})"
            )
        if weight <= 0.0:
            raise OptimizationError(f"weight must be > 0, got {weight}")
        if goal == "target":
            if target is None:
                raise OptimizationError("target goal needs a target value")
            if not (low < target < high):
                raise OptimizationError(
                    f"target {target} must lie inside ({low}, {high})"
                )
        elif target is not None:
            raise OptimizationError(
                f"goal {goal!r} does not take a target value"
            )
        self.goal = goal
        self.low = float(low)
        self.high = float(high)
        self.target = float(target) if target is not None else None
        self.weight = float(weight)

    def __call__(self, value: float) -> float:
        """Desirability of a response value, in [0, 1]."""
        lo, hi, w = self.low, self.high, self.weight
        if self.goal == "maximize":
            if value <= lo:
                return 0.0
            if value >= hi:
                return 1.0
            return ((value - lo) / (hi - lo)) ** w
        if self.goal == "minimize":
            if value >= hi:
                return 0.0
            if value <= lo:
                return 1.0
            return ((hi - value) / (hi - lo)) ** w
        # target
        t = self.target
        if value <= self.low or value >= self.high:
            return 0.0
        if value == t:
            return 1.0
        if value < t:
            return ((value - lo) / (t - lo)) ** w
        return ((hi - value) / (hi - t)) ** w

    def vectorized(self, values: np.ndarray) -> np.ndarray:
        """Evaluate over an array (flattened).

        Bit-identical to :meth:`__call__` per element: the branches
        become masks (written so NaN takes the ramp, as it does there)
        and each ramp is the same arithmetic.
        """
        v = np.asarray(values, dtype=float).ravel()
        lo, hi = self.low, self.high
        inside = ~((v <= lo) | (v >= hi))
        if self.goal == "maximize":
            out = np.where(v >= hi, 1.0, 0.0)
            out[inside] = self._shape((v[inside] - lo) / (hi - lo))
        elif self.goal == "minimize":
            out = np.where(v <= lo, 1.0, 0.0)
            out[inside] = self._shape((hi - v[inside]) / (hi - lo))
        else:
            t = self.target
            hit = v == t
            rising = inside & (v < t)
            falling = inside & ~hit & ~(v < t)
            out = np.where(inside & hit, 1.0, 0.0)
            out[rising] = self._shape((v[rising] - lo) / (t - lo))
            out[falling] = self._shape((hi - v[falling]) / (hi - t))
        return out

    def _shape(self, ramp: np.ndarray) -> np.ndarray:
        """``ramp ** weight`` with Python's ``pow`` per element, as
        :meth:`__call__` computes it (``np.power`` may round
        differently); a unit weight leaves the ramp exactly as is."""
        if self.weight == 1.0:
            return ramp
        return np.array([r**self.weight for r in ramp.tolist()], dtype=float)

    def describe(self) -> str:
        if self.goal == "target":
            return (
                f"target {self.target:g} in [{self.low:g}, {self.high:g}]"
                f" (w={self.weight:g})"
            )
        return f"{self.goal} over [{self.low:g}, {self.high:g}] (w={self.weight:g})"


class CompositeDesirability:
    """Geometric-mean combination of per-response desirabilities.

    Args:
        parts: response name -> :class:`Desirability`.
        importances: optional response name -> importance exponent
            (defaults to 1 for every response).
    """

    def __init__(
        self,
        parts: Mapping[str, Desirability],
        importances: Mapping[str, float] | None = None,
    ):
        if not parts:
            raise OptimizationError("need at least one response desirability")
        self.parts = dict(parts)
        weights = dict(importances) if importances else {}
        unknown = set(weights) - set(self.parts)
        if unknown:
            raise OptimizationError(
                f"importances for unknown responses: {sorted(unknown)}"
            )
        if any(w <= 0.0 for w in weights.values()):
            raise OptimizationError("importances must be > 0")
        self.importances = {
            name: float(weights.get(name, 1.0)) for name in self.parts
        }

    @property
    def response_names(self) -> tuple[str, ...]:
        return tuple(self.parts)

    def _require(self, responses: Mapping) -> None:
        missing = set(self.parts) - set(responses)
        if missing:
            raise OptimizationError(
                f"missing responses for desirability: {sorted(missing)}"
            )

    def __call__(self, responses: Mapping[str, float]) -> float:
        """Composite desirability of one response dict, in [0, 1]."""
        self._require(responses)
        total_weight = sum(self.importances.values())
        log_sum = 0.0
        for name, d in self.parts.items():
            value = d(float(responses[name]))
            if value <= 0.0:
                return 0.0
            log_sum += self.importances[name] * math.log(value)
        return math.exp(log_sum / total_weight)

    def vectorized(self, responses: Mapping[str, np.ndarray]) -> np.ndarray:
        """Composite desirability of response arrays, elementwise.

        Bit-identical to :meth:`__call__` per element: the same
        log-sum in the same order, with ``math.log``/``math.exp`` per
        element (a SIMD ``np.log``/``np.exp`` may round differently).
        """
        self._require(responses)
        total_weight = sum(self.importances.values())
        parts = [
            (self.importances[name], d.vectorized(responses[name]))
            for name, d in self.parts.items()
        ]
        alive = np.ones(parts[0][1].size, dtype=bool)
        for _, values in parts:
            alive &= ~(values <= 0.0)
        log_sum = np.zeros(int(alive.sum()))
        for weight, values in parts:
            logs = [math.log(v) for v in values[alive].tolist()]
            log_sum += weight * np.array(logs, dtype=float)
        out = np.zeros(alive.size)
        out[alive] = [math.exp(s) for s in (log_sum / total_weight).tolist()]
        return out

    def describe(self) -> str:
        return "; ".join(
            f"{name}: {d.describe()} x{self.importances[name]:g}"
            for name, d in self.parts.items()
        )
