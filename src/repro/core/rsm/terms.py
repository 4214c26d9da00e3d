"""Polynomial term algebra and model specifications.

A :class:`Term` is a monomial in the coded factors, stored as an
exponent tuple — ``(1, 0, 2)`` is ``x1 * x3^2``.  A :class:`ModelSpec`
is an ordered set of terms (the intercept first by convention) that
knows how to expand a coded design matrix into the model matrix the
least-squares machinery consumes, and how to differentiate itself for
the surface analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FitError

#: Rows per block in :meth:`ModelSpec.build_matrix`.  On a 16 807-row
#: scan grid, blocks of 1024 rows took 2-3 ms against 8 ms for one
#: whole-matrix pass, and lowered peak memory.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Term:
    """One monomial in coded factors.

    Attributes:
        powers: exponent per factor; all zeros is the intercept.
    """

    powers: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.powers:
            raise FitError("term needs at least one factor slot")
        if any(p < 0 for p in self.powers):
            raise FitError(f"negative exponent in term {self.powers}")

    @property
    def k(self) -> int:
        return len(self.powers)

    @property
    def order(self) -> int:
        """Total polynomial order (0 for the intercept)."""
        return sum(self.powers)

    @property
    def is_intercept(self) -> bool:
        return self.order == 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate over an (n, k) coded matrix -> column of length n."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.k:
            raise FitError(
                f"term over {self.k} factors evaluated on {x.shape[1]} columns"
            )
        out = np.ones(x.shape[0])
        for j, p in enumerate(self.powers):
            if p:
                out = out * x[:, j] ** p
        return out

    def derivative(self, factor: int) -> tuple[float, "Term"]:
        """d(term)/d(x_factor) as (coefficient, reduced term)."""
        if not (0 <= factor < self.k):
            raise FitError(f"factor index {factor} out of range")
        p = self.powers[factor]
        if p == 0:
            return 0.0, Term(tuple(0 for _ in self.powers))
        reduced = list(self.powers)
        reduced[factor] = p - 1
        return float(p), Term(tuple(reduced))

    def name(self, factor_names: Sequence[str] | None = None) -> str:
        """Human-readable monomial, e.g. ``x1*x3^2`` or ``C*T^2``."""
        if self.is_intercept:
            return "1"
        names = (
            list(factor_names)
            if factor_names is not None
            else [f"x{j + 1}" for j in range(self.k)]
        )
        parts = []
        for label, p in zip(names, self.powers):
            if p == 1:
                parts.append(label)
            elif p > 1:
                parts.append(f"{label}^{p}")
        return "*".join(parts)

    def parents(self) -> list["Term"]:
        """Immediate lower-order terms under model hierarchy.

        ``x1*x2`` has parents ``x1`` and ``x2``; ``x1^2`` has parent
        ``x1``.  Hierarchy-respecting stepwise elimination refuses to
        drop a parent while any of its children remain.
        """
        out = []
        for j, p in enumerate(self.powers):
            if p > 0:
                reduced = list(self.powers)
                reduced[j] = p - 1
                parent = Term(tuple(reduced))
                if not parent.is_intercept:
                    out.append(parent)
        # Deduplicate while keeping order.
        seen: set[tuple[int, ...]] = set()
        unique = []
        for t in out:
            if t.powers not in seen:
                seen.add(t.powers)
                unique.append(t)
        return unique


class ModelSpec:
    """An ordered collection of model terms."""

    def __init__(self, terms: Iterable[Term]):
        term_list = list(terms)
        if not term_list:
            raise FitError("model needs at least one term")
        k = term_list[0].k
        if any(t.k != k for t in term_list):
            raise FitError("all terms must span the same factor count")
        seen: set[tuple[int, ...]] = set()
        for t in term_list:
            if t.powers in seen:
                raise FitError(f"duplicate term {t.powers}")
            seen.add(t.powers)
        self._terms = tuple(term_list)
        self._k = k
        self._compile()

    def _compile(self) -> None:
        """Precompute the factor plan :meth:`build_matrix` executes.

        The plan reads a table of factor powers: ``x``, ``x ** 2``, one
        column per distinct higher ``(factor, power)`` pair, and ones.
        Each term lists the table columns of its factor powers in
        factor order, padded with the ones column to the widest term.
        """
        k = self._k
        higher = sorted(
            {(j, p) for t in self._terms for j, p in enumerate(t.powers) if p > 2}
        )
        column = {(j, p): (p - 1) * k + j for j in range(k) for p in (1, 2)}
        column.update({pair: 2 * k + i for i, pair in enumerate(higher)})
        ones = 2 * k + len(higher)
        factors = [
            [column[(j, p)] for j, p in enumerate(t.powers) if p]
            for t in self._terms
        ]
        self._higher = tuple(higher)
        self._slots = tuple(
            np.array([f[i] if i < len(f) else ones for f in factors])
            for i in range(max(1, *map(len, factors)))
        )

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def k(self) -> int:
        return self._k

    @property
    def p(self) -> int:
        """Number of model terms (regression parameters)."""
        return len(self._terms)

    @property
    def max_order(self) -> int:
        return max(t.order for t in self._terms)

    def has_intercept(self) -> bool:
        return any(t.is_intercept for t in self._terms)

    def build_matrix(self, x_coded: np.ndarray) -> np.ndarray:
        """Expand an (n, k) coded matrix into the (n, p) model matrix.

        Bit-identical to stacking :meth:`Term.evaluate` per term.
        Every column multiplies its factor powers in the same
        left-to-right order, and the padding ones leave a product
        unchanged.  ``x ** 1`` and ``x ** 2`` are exact (a copy, a
        correctly rounded square) whatever the memory layout, so they
        are taken block by block; a higher power goes through ``pow``,
        whose rounding may depend on layout, so it is taken over whole
        columns exactly as :meth:`Term.evaluate` does.  Large inputs
        go block by block so temporaries stay cache-sized.
        """
        x = np.atleast_2d(np.asarray(x_coded, dtype=float))
        if x.shape[1] != self._k:
            raise FitError(
                f"model over {self._k} factors given {x.shape[1]} columns"
            )
        k = self._k
        # Higher powers over whole columns, exactly as Term.evaluate.
        higher = [x[:, j] ** p for j, p in self._higher]
        out = np.empty((x.shape[0], len(self._terms)))
        for start in range(0, x.shape[0], _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = x[rows]
            powers = np.empty((block.shape[0], 2 * k + len(higher) + 1))
            powers[:, :k] = block
            np.square(block, out=powers[:, k : 2 * k])
            for i, h in enumerate(higher):
                powers[:, 2 * k + i] = h[rows]
            powers[:, -1] = 1.0
            product = out[rows]
            # Indices are in range; "clip" only skips a buffered check.
            powers.take(self._slots[0], axis=1, out=product, mode="clip")
            for slot in self._slots[1:]:
                product *= powers.take(slot, axis=1)
        return out

    def term_names(self, factor_names: Sequence[str] | None = None) -> list[str]:
        return [t.name(factor_names) for t in self._terms]

    def without(self, term: Term) -> "ModelSpec":
        """A copy with one term removed."""
        remaining = [t for t in self._terms if t.powers != term.powers]
        if len(remaining) == len(self._terms):
            raise FitError(f"term {term.powers} not in model")
        return ModelSpec(remaining)

    def index_of(self, term: Term) -> int:
        for i, t in enumerate(self._terms):
            if t.powers == term.powers:
                return i
        raise FitError(f"term {term.powers} not in model")

    def children_of(self, term: Term) -> list[Term]:
        """Terms in this model that have ``term`` among their parents."""
        return [
            t
            for t in self._terms
            if any(p.powers == term.powers for p in t.parents())
        ]

    # -- standard families -------------------------------------------------------

    @classmethod
    def linear(cls, k: int) -> "ModelSpec":
        """Intercept + main effects."""
        cls._check_k(k)
        terms = [Term(tuple(0 for _ in range(k)))]
        terms += [cls._unit(k, j) for j in range(k)]
        return cls(terms)

    @classmethod
    def interaction(cls, k: int) -> "ModelSpec":
        """Linear + all two-factor interactions (the "2FI" model)."""
        spec = cls.linear(k)
        terms = list(spec.terms)
        for i, j in itertools.combinations(range(k), 2):
            powers = [0] * k
            powers[i] = 1
            powers[j] = 1
            terms.append(Term(tuple(powers)))
        return cls(terms)

    @classmethod
    def quadratic(cls, k: int) -> "ModelSpec":
        """Full second-order model: linear + 2FI + pure quadratics.

        This is the RSM workhorse the paper's flow fits on CCD data.
        """
        spec = cls.interaction(k)
        terms = list(spec.terms)
        for j in range(k):
            powers = [0] * k
            powers[j] = 2
            terms.append(Term(tuple(powers)))
        return cls(terms)

    @classmethod
    def cubic(cls, k: int) -> "ModelSpec":
        """Quadratic + pure cubic terms (for curvature stress tests)."""
        spec = cls.quadratic(k)
        terms = list(spec.terms)
        for j in range(k):
            powers = [0] * k
            powers[j] = 3
            terms.append(Term(tuple(powers)))
        return cls(terms)

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 1:
            raise FitError(f"k must be >= 1, got {k}")

    @staticmethod
    def _unit(k: int, j: int) -> Term:
        powers = [0] * k
        powers[j] = 1
        return Term(tuple(powers))

    def describe(self) -> str:
        return (
            f"model: {self.p} terms, order {self.max_order}, "
            f"{self._k} factors"
        )
