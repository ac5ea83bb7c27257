"""Marginal tail models and joint exceedance bounds.

A marginal tail model is a non-increasing upper bound S on the two-sided
noise tail P(|xi_j| > r), together with its generalized inverse
S_inv(q) = min{r >= 0 : S(r) <= q}.  Joint bounds combine per-coordinate
models into an upper bound on P(exists j : |xi_j| > v_j) for a vector of
allotted widths v.

Normal CDF/quantile values come from scipy.special.ndtr/ndtri (the Cephes
routines).  Their error is far below the 1e-10 radius tolerance, so another
implementation of comparable accuracy gives radii that agree to about that
tolerance, but not the same digits.  ``isf`` sets the upper end of every
bisection (``UnionBound.feasible_radius`` gives the zero-gap radius search
its start, and r0 bounds every solver's cells) and the Bonferroni width of
a simulation report, and ``sf`` decides which cells a search keeps, so one
ulp there moves outputs.  Bit-for-bit results (byte-stable CLI output and
simulation reports) hold for a given numpy and scipy build.

The solvers never ask which class a joint bound is, only what it can do,
and there are two kinds.  A stack bound (``UnionBound``) offers ``m``, an
``exceedance`` of a stack of width rows whose every row's value depends on
that row alone, ``feasible_radius(alpha)``, ``exchangeable`` and the
``_r0`` memo.  A bank (``MonteCarloBound``) offers ``m``, ``n``,
``blocks()``, ``row_max``, ``row_arg`` (the column of each row's
maximum), ``exchangeable`` and ``_r0``; the solvers tell it apart by its
``row_max``.  The step-down methods need exactly two things more of a
bound: ``exchangeable`` must hold and the bound must carry ``models``, its
per-coordinate marginal tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InfeasibleAlphaError

# Probabilities below this are rejected by S_inv: radii that deep in the
# tail are numerically meaningless for every model we expose.
MIN_TAIL_PROB = 1e-12

# Entries per block of a Monte-Carlo bank scan (MonteCarloBound.blocks): 512 KB
# float temporaries, so a block's few live temporaries fit about one core's
# 2 MB L2 cache.  Blocks of 500k entries (4 MB temporaries, in the shared L3)
# made the three scans of a winner call on a 100k x 100 bank about 40% slower
# (287 against 200 ms) and less even while another process streamed memory;
# blocks of 4M entries were slower still, and their 32 MB temporaries stayed
# resident between calls (peak RSS of repeated simulation calls 343 against
# 320 MB).
_MC_CHUNK_ELEMS = 65_536


def _as_radii(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if not (arr >= 0).all():  # NaN fails the comparison too
        raise ValueError("radii must be non-negative (NaN not allowed)")
    return arr


def _check_prob(q) -> np.ndarray:
    """Levels as an array; the first out-of-range entry is refused as a
    lone level would be."""
    q = np.asarray(q, dtype=float)
    bad = q[~((q >= MIN_TAIL_PROB) & (q <= 1.0))]  # NaN is bad too
    if bad.size and 0.0 < bad[0] <= 1.0:
        raise ValueError(f"probability {bad[0]} below supported minimum {MIN_TAIL_PROB}")
    if bad.size:
        raise ValueError(f"probability must lie in (0, 1], got {bad[0]}")
    return q


def _scalar(out):
    """A float for a lone value, the array otherwise: ``sf`` and ``isf``
    answer a scalar with a float and an array with an array."""
    return out if out.ndim else float(out)


# Every tail model evaluates S through a static ``_tail(r, param)`` on radii
# that are already validated; ``param`` may be an array that broadcasts along
# the last axis of r, which is how ``UnionBound`` evaluates a whole family of
# coordinates in one call.

def _sf(model, r):
    return _scalar(model._tail(_as_radii(r), model._param))


@dataclass(frozen=True)
class GaussianTail:
    """Exact two-sided tail of a centered Gaussian: S(r) = 2*(1 - Phi(r/scale))."""

    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def _param(self):
        return self.scale

    @staticmethod
    def _tail(r, scale):
        return 2.0 * ndtr(-r / scale)

    def sf(self, r):
        return _sf(self, r)

    def isf(self, q):
        # Phi^{-1}(1 - q/2) = -Phi^{-1}(q/2); the latter keeps full precision
        # for small q.
        return _scalar(-ndtri(0.5 * _check_prob(q)) * self.scale)


@dataclass(frozen=True)
class SubGaussianTail:
    """Sub-Gaussian bound S(r) = min(1, 2*exp(-r^2 / (2*proxy^2)))."""

    proxy: float

    def __post_init__(self):
        if not (math.isfinite(self.proxy) and self.proxy > 0):
            raise ValueError(f"proxy must be positive and finite, got {self.proxy}")

    @property
    def _param(self):
        return self.proxy

    @staticmethod
    def _tail(r, proxy):
        return np.minimum(1.0, 2.0 * np.exp(-0.5 * (r / proxy) ** 2))

    def sf(self, r):
        return _sf(self, r)

    def isf(self, q):
        q = _check_prob(q)
        # entry by entry with math.log: np.log differs from it in the last
        # digit on some levels, and feasible_radius reads these digits.
        # S(0) clamps to 1, so at level 1 every radius is feasible.
        r = [0.0 if v >= 1.0 else self.proxy * math.sqrt(2.0 * math.log(2.0 / v))
             for v in q.flat]
        return _scalar(np.reshape(r, q.shape))


@dataclass(frozen=True)
class EmpiricalTail:
    """Piecewise-linear tail bound through sorted absolute-error values.

    The bound interpolates the knots (0, 1), (t_(1), 1 - 1/n), ...,
    (t_(n), 0) and is identically 0 beyond the largest table entry.  Zero
    values make no knot, so S(0) = 1 as every solver assumes: with k zeros
    the first knot after (0, 1) is (t_(k+1), 1 - (k+1)/n).
    """

    table: tuple = field(repr=False)

    def __post_init__(self):
        values = np.sort(np.asarray(self.table, dtype=float))
        if values.size == 0:
            raise ValueError("empirical table must contain at least one value")
        if np.any(~np.isfinite(values)) or values[0] < 0:
            raise ValueError("empirical table values must be finite and non-negative")
        positive = values > 0.0
        knots_r = np.concatenate([[0.0], values[positive]])
        knots_s = np.concatenate(
            [[1.0], (1.0 - np.arange(1, values.size + 1) / values.size)[positive]])
        object.__setattr__(self, "table", tuple(values))
        object.__setattr__(self, "_knots_r", knots_r)
        object.__setattr__(self, "_knots_s", knots_s)

    @property
    def _param(self):
        return self._knots_r, self._knots_s

    @staticmethod
    def _tail(r, knots):
        return np.interp(r, *knots, right=0.0)

    def sf(self, r):
        return _sf(self, r)

    def isf(self, q):
        # survival values are strictly decreasing across knots, so the
        # inverse is plain interpolation on the reversed arrays
        return _scalar(np.interp(_check_prob(q), self._knots_s[::-1], self._knots_r[::-1]))


# families whose coordinates share one tail formula with a scalar parameter
# (its S_inv grows with the parameter); every other model is grouped with
# the models equal to it
_PARAMETRIC = (GaussianTail, SubGaussianTail)


def _families(models) -> tuple:
    """Group coordinates by marginal family: one parameter array per
    parametric family, one group per distinct model of any other kind.

    Each family is (cols, tail, param, worst): the coordinates whose tails
    one ``tail(widths, param)`` call gives, and a member whose S_inv is the
    family's largest at every level.  A lone family covers every coordinate
    (cols is a full slice, so its widths are not copied).
    """
    groups, by_id = {}, {}
    for j, model in enumerate(models):
        cols = by_id.get(id(model))  # hash each distinct object once
        if cols is None:
            key = type(model) if isinstance(model, _PARAMETRIC) else model
            cols = by_id[id(model)] = groups.setdefault(key, [])
        cols.append(j)
    families = []
    for key, cols in groups.items():
        if isinstance(key, type):
            param = np.array([models[j]._param for j in cols])
            worst = models[cols[int(np.argmax(param))]]
        else:
            param, worst = key._param, key
        cols = np.asarray(cols) if len(groups) > 1 else slice(None)
        families.append((cols, type(worst)._tail, param, worst))
    return tuple(families)


@dataclass(frozen=True)
class UnionBound:
    """Union (Bonferroni-style) joint bound: sum of marginal tails, clamped to 1.

    Valid under arbitrary dependence between coordinates.  At construction
    the models are grouped by family: Gaussian scales and sub-Gaussian
    proxies each become one parameter array, and equal models of any other
    kind (identical empirical tables) share one group.  ``exceedance`` then
    fills a stack of widths with one vectorized call per family and sums
    along the last axis once, so identical marginals are the one-group case.
    The zero-gap radius of each level is kept in ``_r0`` once
    ``core.active_radius`` has solved it.  ``exchangeable`` holds whether
    the marginals are identical, as then the bound is the same under any
    permutation of the coordinates.  Like the families neither is a field,
    so equality, hashing and repr ignore them.
    """

    models: tuple

    def __post_init__(self):
        models = tuple(self.models)
        if len(models) == 0:
            raise ValueError("need at least one marginal model")
        object.__setattr__(self, "models", models)
        families = _families(models)
        object.__setattr__(self, "_families", families)
        # equal models share one family; a parametric one needs equal params
        (_, _, param, worst), *rest = families
        object.__setattr__(self, "exchangeable", not rest and (
            not isinstance(worst, _PARAMETRIC) or bool(np.all(param == param[0]))))
        object.__setattr__(self, "_r0", {})  # zero-gap radius per level (core.active_radius)

    @property
    def m(self) -> int:
        return len(self.models)

    def feasible_radius(self, alpha: float) -> float:
        """A radius at which the bound is certainly <= alpha: the largest
        marginal S_inv(alpha / m), from one call per family."""
        try:
            return max(worst.isf(alpha / self.m) for *_, worst in self._families)
        except ValueError as exc:
            raise InfeasibleAlphaError(
                f"error budget too small for the marginal tail model: {exc}") from exc

    def exceedance(self, widths) -> np.ndarray | float:
        """Bound on P(exists j: |xi_j| > widths_j).

        Accepts a single width vector (m,) or a stack of rows (..., m);
        returns the bound per row.  Each row's sum depends on that row
        alone, so a row of a stack gets the single-row result bit for bit.
        """
        w = _as_radii(widths)
        if w.shape[-1] != self.m:
            raise ValueError(f"width vector has length {w.shape[-1]}, expected {self.m}")
        tails = np.empty(w.shape)  # C order: a row of a stack sums as a lone row
        for cols, tail, param, _ in self._families:
            tails[..., cols] = tail(w[..., cols], param)
        return _scalar(np.minimum(tails.sum(axis=-1), 1.0))


def _block_rows(m: int) -> int:
    """Rows per block of a bank scan with m columns (``MonteCarloBound.blocks``)."""
    return max(1, _MC_CHUNK_ELEMS // m)


@dataclass(frozen=True)
class MonteCarloBound:
    """Empirical joint exceedance over a bank of noise draws.

    Exact (up to Monte-Carlo error) for the sampled noise law instead of a
    conservative union.  Only |xi| enters any bound, so the bank is held
    once, as a read-only n x m array of absolute draws: signed draws are
    folded on construction, and a read-only non-negative array (what
    ``draw_bank`` builds) is adopted without a copy.  ``row_max`` holds each
    row's largest |xi| and ``row_arg`` its column (the first one on ties,
    as ``np.argmax`` picks it, in the smallest unsigned type that holds
    m - 1), read-only n-vectors computed once, in the same block loop that
    checks the bank finite and its signs.  The zero-gap radius and every
    Monte-Carlo interval read ``row_max`` instead of rescanning the bank, a
    bank scan settles most rows from the two (``core._mc_scan``), and
    ``_r0`` keeps the zero-gap radius of each level that
    ``core.active_radius`` has read off them (none is a field, so equality
    and repr ignore them).  ``exchangeable`` records whether the
    coordinates of the sampled law are exchangeable, which symmetric-bound
    consumers check.
    """

    abs_samples: np.ndarray = field(repr=False)
    exchangeable: bool = False

    def __post_init__(self):
        a = np.asarray(self.abs_samples, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("sample bank must be a non-empty 2-d array")
        folded = np.empty(a.shape) if a.flags.writeable else None
        row_max = np.empty(a.shape[0])
        row_arg = np.empty(a.shape[0], dtype=np.min_scalar_type(a.shape[1] - 1))
        step = _block_rows(a.shape[1])
        for s in range(0, a.shape[0], step):
            block = a[s:s + step]
            if not np.isfinite(block).all():
                raise ValueError("sample bank must be finite")
            if folded is None and np.signbit(block).any():
                # the rows above hold no sign bit, so folding leaves them as they are
                folded = np.empty(a.shape)
                folded[:s] = a[:s]
            if folded is not None:
                block = np.abs(block, out=folded[s:s + step])
            arg = block.argmax(axis=1)  # the first largest |xi| on ties
            row_arg[s:s + step] = arg
            row_max[s:s + step] = np.take_along_axis(block, arg[:, None], axis=1)[:, 0]
        if folded is not None:
            a = folded
            a.setflags(write=False)
        row_max.setflags(write=False)
        row_arg.setflags(write=False)
        object.__setattr__(self, "abs_samples", a)
        object.__setattr__(self, "row_max", row_max)
        object.__setattr__(self, "row_arg", row_arg)
        object.__setattr__(self, "_r0", {})  # zero-gap radius per level (core.active_radius)

    @property
    def m(self) -> int:
        return self.abs_samples.shape[1]

    @property
    def n(self) -> int:
        return self.abs_samples.shape[0]

    def blocks(self):
        """The bank's rows in consecutive blocks of about _MC_CHUNK_ELEMS
        entries, so a scan's temporaries stay bounded however large n is."""
        rows = _block_rows(self.m)
        return (self.abs_samples[s:s + rows] for s in range(0, self.n, rows))
