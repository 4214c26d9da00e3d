"""Response transforms for surface fitting.

Classical RSM practice: responses that are multiplicative in the
factors (here the data rate, ``payload / period`` with both factors
log-coded, spanning three decades) are fitted in a transformed scale
where a low-order polynomial is structurally right, and predictions
are mapped back.  ``log1p`` is used instead of a bare log so responses
that can hit exactly zero (a browned-out node delivers no data) stay
finite.

:class:`TransformedSurface` wraps a fitted
:class:`~repro.core.rsm.surface.ResponseSurface` and exposes the same
*prediction* interface in original units; the polynomial analysis
methods (gradients, canonical analysis) remain on the underlying
``base`` surface, because they describe the transformed scale.
"""

from __future__ import annotations

import numpy as np

from repro.core.rsm.surface import ResponseSurface
from repro.errors import FitError

_TRANSFORMS = {
    "identity": (lambda y: y, lambda z: z),
    "log1p": (np.log1p, np.expm1),
}


def forward_transform(name: str, y: np.ndarray) -> np.ndarray:
    """Apply a named transform to raw response values."""
    try:
        fwd, _ = _TRANSFORMS[name]
    except KeyError:
        raise FitError(
            f"unknown response transform {name!r}; have {sorted(_TRANSFORMS)}"
        ) from None
    y = np.asarray(y, dtype=float)
    if name == "log1p" and np.any(y < 0.0):
        raise FitError("log1p transform requires non-negative responses")
    return fwd(y)


class TransformedSurface:
    """A response surface fitted in a transformed scale.

    Attributes:
        base: the underlying polynomial surface (transformed units).
        transform: the transform name.
    """

    def __init__(self, base: ResponseSurface, transform: str):
        if transform not in _TRANSFORMS:
            raise FitError(f"unknown response transform {transform!r}")
        self.base = base
        self.transform = transform
        self._inverse = _TRANSFORMS[transform][1]

    # -- prediction interface (original units) -------------------------------

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def model(self):
        return self.base.model

    @property
    def stats(self):
        """Fit statistics *in the transformed scale*."""
        return self.base.stats

    @property
    def factor_names(self):
        return self.base.factor_names

    def predict(self, x_coded: np.ndarray) -> np.ndarray:
        return self._untransform(self.base.predict(x_coded))

    def predict_from_matrix(self, xm: np.ndarray) -> np.ndarray:
        return self._untransform(self.base.predict_from_matrix(xm))

    def _untransform(self, z: np.ndarray) -> np.ndarray:
        out = self._inverse(z)
        if self.transform == "log1p":
            out = np.maximum(out, 0.0)
        return out

    def predict_one(self, x_coded: np.ndarray) -> float:
        return float(self.predict(np.atleast_2d(x_coded))[0])

    def summary(self) -> str:
        return (
            f"[{self.transform}-transformed]\n" + self.base.summary()
        )
