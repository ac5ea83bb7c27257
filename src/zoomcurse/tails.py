"""Marginal tail models and joint exceedance bounds.

A marginal tail model is a non-increasing upper bound S on the two-sided
noise tail P(|xi_j| > r), together with its generalized inverse
S_inv(q) = min{r >= 0 : S(r) <= q}.  Joint bounds combine per-coordinate
models into an upper bound on P(exists j : |xi_j| > v_j) for a vector of
allotted widths v.

Normal CDF/quantile values come from scipy.special.ndtr/ndtri (the Cephes
routines); their absolute error is far below the 1e-10 this package
documents, so alternate implementations of comparable accuracy reproduce
the same digits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

# Probabilities below this are rejected by S_inv: radii that deep in the
# tail are numerically meaningless for every model we expose.
MIN_TAIL_PROB = 1e-12


def _as_radii(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0):
        raise ValueError("radii must be non-negative (NaN not allowed)")
    return arr


def _check_prob(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ValueError(f"probability must lie in (0, 1], got {q}")
    if q < MIN_TAIL_PROB:
        raise ValueError(f"probability {q} below supported minimum {MIN_TAIL_PROB}")
    return q


@dataclass(frozen=True)
class GaussianTail:
    """Exact two-sided tail of a centered Gaussian: S(r) = 2*(1 - Phi(r/scale))."""

    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def sf(self, r):
        r = _as_radii(r)
        out = 2.0 * ndtr(-r / self.scale)
        return out if out.ndim else float(out)

    def isf(self, q):
        q = _check_prob(q)
        # Phi^{-1}(1 - q/2) = -Phi^{-1}(q/2); the latter keeps full precision
        # for small q.
        return float(-ndtri(0.5 * q) * self.scale)


@dataclass(frozen=True)
class SubGaussianTail:
    """Sub-Gaussian bound S(r) = min(1, 2*exp(-r^2 / (2*proxy^2)))."""

    proxy: float

    def __post_init__(self):
        if not (math.isfinite(self.proxy) and self.proxy > 0):
            raise ValueError(f"proxy must be positive and finite, got {self.proxy}")

    def sf(self, r):
        r = _as_radii(r)
        out = np.minimum(1.0, 2.0 * np.exp(-0.5 * (r / self.proxy) ** 2))
        return out if out.ndim else float(out)

    def isf(self, q):
        q = _check_prob(q)
        if q >= 1.0:
            return 0.0  # S(0) clamps to 1, so every radius is feasible
        return float(self.proxy * math.sqrt(2.0 * math.log(2.0 / q)))


@dataclass(frozen=True)
class EmpiricalTail:
    """Piecewise-linear tail bound through sorted absolute-error values.

    The bound interpolates the knots (0, 1), (t_(1), 1 - 1/n), ...,
    (t_(n), 0) and is identically 0 beyond the largest table entry.
    """

    table: tuple = field(repr=False)

    def __post_init__(self):
        values = np.sort(np.asarray(self.table, dtype=float))
        if values.size == 0:
            raise ValueError("empirical table must contain at least one value")
        if np.any(~np.isfinite(values)) or values[0] < 0:
            raise ValueError("empirical table values must be finite and non-negative")
        knots_r = np.concatenate([[0.0], values])
        knots_s = np.concatenate([[1.0], 1.0 - np.arange(1, values.size + 1) / values.size])
        object.__setattr__(self, "table", tuple(values))
        object.__setattr__(self, "_knots_r", knots_r)
        object.__setattr__(self, "_knots_s", knots_s)

    def sf(self, r):
        r = _as_radii(r)
        out = np.interp(r, self._knots_r, self._knots_s, right=0.0)
        return out if out.ndim else float(out)

    def isf(self, q):
        q = _check_prob(q)
        # survival values are strictly decreasing across knots, so the
        # inverse is plain interpolation on the reversed arrays
        return float(np.interp(q, self._knots_s[::-1], self._knots_r[::-1]))


TailModel = Union[GaussianTail, SubGaussianTail, EmpiricalTail]


@dataclass(frozen=True)
class UnionBound:
    """Union (Bonferroni-style) joint bound: sum of marginal tails, clamped to 1.

    Valid under arbitrary dependence between coordinates.
    """

    models: tuple

    def __post_init__(self):
        models = tuple(self.models)
        if len(models) == 0:
            raise ValueError("need at least one marginal model")
        object.__setattr__(self, "models", models)
        # O(m) comparisons: done once here, not on every exceedance call
        object.__setattr__(self, "_identical",
                           all(mod == models[0] for mod in models[1:]))

    @property
    def m(self) -> int:
        return len(self.models)

    @property
    def identical_marginals(self) -> bool:
        return self._identical

    def exceedance(self, widths) -> np.ndarray | float:
        """Bound on P(exists j: |xi_j| > widths_j).

        Accepts a single width vector (m,) or a stack of rows (..., m);
        returns the bound per row.
        """
        w = _as_radii(widths)
        if w.shape[-1] != self.m:
            raise ValueError(f"width vector has length {w.shape[-1]}, expected {self.m}")
        if self.identical_marginals:
            total = np.asarray(self.models[0].sf(w)).sum(axis=-1)
        else:
            total = sum(np.asarray(self.models[j].sf(w[..., j])) for j in range(self.m))
        out = np.minimum(np.asarray(total, dtype=float), 1.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MonteCarloBound:
    """Empirical joint exceedance over a bank of noise draws.

    Exact (up to Monte-Carlo error) for the sampled noise law instead of a
    conservative union.  Only |xi| enters any bound, so the bank is held
    once, as a read-only n x m array of absolute draws: signed draws are
    folded on construction, and a read-only non-negative array (what
    ``draw_bank`` builds) is adopted without a copy.  ``exchangeable``
    records whether the coordinates of the sampled law are exchangeable,
    which symmetric-bound consumers check.
    """

    abs_samples: np.ndarray = field(repr=False)
    exchangeable: bool = False

    def __post_init__(self):
        a = np.asarray(self.abs_samples, dtype=float)
        if a.ndim != 2 or a.shape[0] == 0:
            raise ValueError("sample bank must be a non-empty 2-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("sample bank must be finite")
        if a.flags.writeable or np.any(np.signbit(a)):
            a = np.abs(a)
            a.setflags(write=False)
        object.__setattr__(self, "abs_samples", a)

    @property
    def m(self) -> int:
        return self.abs_samples.shape[1]

    @property
    def n(self) -> int:
        return self.abs_samples.shape[0]

    def exceedance(self, widths) -> float:
        """Fraction of bank rows with some |xi_j| strictly above widths_j."""
        w = _as_radii(widths)
        if w.shape != (self.m,):
            raise ValueError(f"width vector must have shape ({self.m},)")
        return float(np.mean(np.any(self.abs_samples > w, axis=1)))
