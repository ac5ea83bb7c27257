import numpy as np
import pytest

from zoomcurse.core import Problem, winner_interval_root
from zoomcurse.errors import UnsupportedMethodError
from zoomcurse.meta import (near_winner_interval, population_value_interval,
                            winner_identity_set)
from zoomcurse.sampling import EquicorrelatedSampler, TableSampler, draw_bank
from zoomcurse.tails import GaussianTail, UnionBound

GAUSS = GaussianTail(1.0)

# scores (10, 0), alpha 0.1: root lower radius and the far-loser piece for
# candidate 1, all frozen against the 50-digit oracle run
ROOT_LOWER_RADIUS = 1.6721438087774834
FAR_PIECE = (-11.645356533678048, 3.8817855112260161)


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GAUSS,) * x.size), alpha)


class TestPopulationValueInterval:
    def test_same_endpoints_as_winner_interval(self):
        p = gaussian_problem([3.0, 1.0, -2.0])
        pop = population_value_interval(p)
        iv = winner_interval_root(p)
        assert (pop.t_l, pop.t_u) == (iv.t_l, iv.t_u)
        assert pop.diagnostics["target"] == "population_max"


class TestWinnerIdentitySet:
    def test_clear_winner_stands_alone(self):
        ids = winner_identity_set(gaussian_problem([10.0, 0.0]))
        assert ids.indices == (0,)
        assert ids.threshold == pytest.approx(10.0 - 2 * ROOT_LOWER_RADIUS,
                                              abs=1e-9)
        assert 0 in ids and 1 not in ids and len(ids) == 1

    def test_ties_keep_everyone(self):
        ids = winner_identity_set(gaussian_problem([5.0, 5.0, 5.0]))
        assert ids.indices == (0, 1, 2)

    def test_close_race_keeps_everyone(self):
        ids = winner_identity_set(gaussian_problem([2.0, 1.5, 1.0]))
        assert ids.indices == (0, 1, 2)

    def test_near_tie_survives_far_loser_dropped(self):
        ids = winner_identity_set(gaussian_problem([10.0, 9.9, 0.0]))
        assert ids.indices == (0, 1)

    def test_set_matches_its_own_threshold_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.normal(size=5) * rng.uniform(1, 6)
            ids = winner_identity_set(gaussian_problem(x))
            expect = tuple(np.nonzero(x >= ids.threshold)[0])
            assert ids.indices == expect
            assert int(np.argmax(x)) in ids  # the winner never drops out


class TestNearWinnerInterval:
    def test_far_loser_single_piece(self):
        res = near_winner_interval(gaussian_problem([10.0, 0.0]), 1)
        assert len(res.pieces) == 1
        np.testing.assert_allclose(res.pieces[0], FAR_PIECE, rtol=0, atol=1e-9)
        assert res.hull == res.pieces[0]
        assert res.diagnostics["deficit"] == 10.0

    def test_winner_query_collapses_to_winner_interval(self):
        p = gaussian_problem([10.0, 0.0, -1.0])
        iv = winner_interval_root(p)
        res = near_winner_interval(p, 0)
        assert len(res.pieces) == 1
        assert res.pieces[0] == (iv.t_l, iv.t_u)

    def test_pieces_always_merge_to_one(self):
        # whenever the winner-tracking piece is nonempty (deficit <= 4 r_l)
        # it overlaps the far piece, because 4 r_l < (9 r_l + r_u) / 2; so
        # the output is a single interval at every deficit
        for gap in np.linspace(0.0, 12.0, 25):
            res = near_winner_interval(gaussian_problem([10.0, 10.0 - gap]), 1)
            assert len(res.pieces) == 1

    def test_hull_shrinks_when_deficit_shrinks(self):
        wide = near_winner_interval(gaussian_problem([10.0, 0.0]), 1)
        narrow = near_winner_interval(gaussian_problem([10.0, 9.0]), 1)
        assert (narrow.hull[1] - narrow.hull[0]) < (wide.hull[1] - wide.hull[0])

    def test_pieces_always_cover_own_score_region(self):
        # each candidate's own score is within the hull for sane instances
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=4) * 3
            p = gaussian_problem(x)
            for j in range(4):
                res = near_winner_interval(p, j)
                lo, hi = res.hull
                assert lo <= x[j] <= hi

    def test_index_validation(self):
        with pytest.raises(ValueError):
            near_winner_interval(gaussian_problem([1.0, 0.0]), 2)


class TestSymmetryGate:
    def test_mixed_marginals_refused(self):
        p = Problem(np.array([1.0, 0.0]),
                    UnionBound((GaussianTail(1.0), GaussianTail(2.0))), 0.1)
        for fn in (population_value_interval, winner_identity_set):
            with pytest.raises(UnsupportedMethodError):
                fn(p)
        with pytest.raises(UnsupportedMethodError):
            near_winner_interval(p, 0)

    def test_nonexchangeable_bank_refused(self):
        rows = np.random.default_rng(0).normal(size=(200, 2))
        bank = draw_bank(TableSampler(rows), 200, seed=0)
        assert not bank.exchangeable
        p = Problem(np.array([1.0, 0.0]), bank, 0.1)
        with pytest.raises(UnsupportedMethodError):
            winner_identity_set(p)

    def test_exchangeable_bank_accepted(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.3), 2000, seed=1)
        p = Problem(np.array([4.0, 0.0]), bank, 0.1)
        ids = winner_identity_set(p)
        assert 0 in ids
        pop = population_value_interval(p)
        assert pop.t_l <= 4.0 <= pop.t_u
