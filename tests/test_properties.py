"""Property tests of the union-bound radius solver over random problems.

Four tail families, up to 40 candidates, alpha in [1e-3, 0.5], and scores
that may tie.  Hypothesis keeps no example database here, so a run writes
no files.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zoomcurse.core import Problem, winner_interval_grid, winner_interval_root
from zoomcurse.meta import population_value_interval
from zoomcurse.tails import EmpiricalTail, GaussianTail, SubGaussianTail, UnionBound
from zoomcurse.topk import topk_interval

from oracles import endpoint_sum

EMPIRICAL = EmpiricalTail(np.abs(np.random.default_rng(5).standard_t(5, size=300)))
TIED_SCORES = (-4.0, -1.5, 0.0, 0.5, 0.75, 2.0)
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def union_problems(draw):
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        score = st.sampled_from(TIED_SCORES)
    else:
        score = st.floats(-20.0, 20.0, allow_nan=False)
    x = np.array(draw(st.lists(score, min_size=m, max_size=m)))
    family = draw(st.sampled_from(("gaussian", "subgaussian", "empirical", "scales")))
    if family == "gaussian":
        models = (GaussianTail(1.0),) * m
    elif family == "subgaussian":
        models = (SubGaussianTail(1.3),) * m
    elif family == "empirical":
        models = (EMPIRICAL,) * m
    else:
        scales = draw(st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m))
        models = tuple(GaussianTail(s) for s in scales)
    alpha = draw(st.floats(1e-3, 0.5))
    return Problem(x, UnionBound(models), alpha)


@SETTINGS
@given(union_problems())
def test_grid_root_and_meta_endpoints_are_bit_identical(p):
    root = winner_interval_root(p)
    for iv in (winner_interval_grid(p), winner_interval_grid(p, 101, refine=True)):
        assert (iv.t_l, iv.t_u) == (root.t_l, root.t_u)
    if p.bound.identical_marginals:
        pop = population_value_interval(p)
        assert (pop.t_l, pop.t_u) == (root.t_l, root.t_u)


@SETTINGS
@given(union_problems())
def test_top1_radius_is_the_winner_lower_radius(p):
    root = winner_interval_root(p)
    assert topk_interval(p, 1).r_max == root.r_l


@SETTINGS
@given(union_problems())
def test_no_winner_value_outside_the_interval_is_accepted(p):
    root = winner_interval_root(p)
    xw, r0 = root.x_winner, root.diagnostics["zero_gap_radius"]
    assert xw - r0 <= root.t_l and root.t_u <= xw + r0
    d = xw - p.x
    lower = np.linspace(xw - r0, root.t_l, 2001)
    upper = np.linspace(root.t_u, xw + r0, 2001)
    for t, sign in ((lower[lower < root.t_l], -1.0), (upper[upper > root.t_u], +1.0)):
        if t.size:
            sums = np.asarray(endpoint_sum(p.bound, d, np.abs(xw - t), sign))
            assert np.all(sums <= p.alpha)


@SETTINGS
@given(union_problems(), st.sampled_from((-1000.0, -3.25, 0.5, 64.0)))
def test_radii_are_translation_invariant(p, shift):
    moved = Problem(p.x + shift, p.bound, p.alpha)
    a, b = winner_interval_root(p), winner_interval_root(moved)
    # the gaps X_win - X_j round differently after the shift; the radii
    # may move by that rounding and one solver cell (1e-10)
    assert abs(a.r_l - b.r_l) <= 1e-9 and abs(a.r_u - b.r_u) <= 1e-9
