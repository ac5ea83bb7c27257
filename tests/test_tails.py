import tracemalloc

import numpy as np
import pytest

from zoomcurse.tails import (EmpiricalTail, GaussianTail, MonteCarloBound,
                             SubGaussianTail, UnionBound)

# frozen from a 50-digit erf oracle
GAUSS_ISF = {
    0.1: 1.6448536269514722,
    0.05: 1.959963984540054,
    0.01: 2.5758293035489007,
    0.001: 3.2905267314918948,
}


class TestGaussianTail:
    def test_frozen_quantiles(self):
        g = GaussianTail(1.0)
        for q, r in GAUSS_ISF.items():
            assert g.isf(q) == pytest.approx(r, abs=1e-12)
            assert g.sf(r) == pytest.approx(q, abs=1e-12)

    def test_sf_anchors(self):
        g = GaussianTail(1.0)
        assert g.sf(0.0) == 1.0
        assert g.sf(np.inf) == 0.0
        assert g.sf(40.0) < 1e-300

    def test_scale_is_a_pure_rescaling(self):
        wide, unit = GaussianTail(2.5), GaussianTail(1.0)
        r = np.linspace(0, 8, 33)
        np.testing.assert_allclose(wide.sf(r), unit.sf(r / 2.5), rtol=1e-14)
        assert wide.isf(0.05) == pytest.approx(2.5 * unit.isf(0.05), rel=1e-14)

    def test_vector_radii(self):
        g = GaussianTail(1.0)
        out = g.sf(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert out.shape == (2, 2)
        assert np.all(np.diff(out.ravel()) < 0)

    def test_rejects_bad_inputs(self):
        g = GaussianTail(1.0)
        with pytest.raises(ValueError):
            g.sf(-0.5)
        with pytest.raises(ValueError):
            g.sf(np.nan)
        with pytest.raises(ValueError):
            g.isf(0.0)
        with pytest.raises(ValueError):
            g.isf(1.5)
        with pytest.raises(ValueError):
            GaussianTail(0.0)

    def test_infeasible_quantile_guard(self):
        with pytest.raises(ValueError):
            GaussianTail(1.0).isf(1e-13)


class TestSubGaussianTail:
    def test_closed_form(self):
        t = SubGaussianTail(1.5)
        r = np.linspace(0, 10, 41)
        np.testing.assert_allclose(
            t.sf(r), np.minimum(1.0, 2.0 * np.exp(-0.5 * (r / 1.5) ** 2)), rtol=1e-14)

    def test_isf_roundtrip(self):
        t = SubGaussianTail(0.7)
        for q in (0.3, 0.1, 0.01, 1e-6):
            assert t.sf(t.isf(q)) == pytest.approx(q, rel=1e-12)
        assert t.isf(1.0) == 0.0

    @pytest.mark.parametrize("proxy", [0.0, float("inf")])
    def test_rejects_bad_proxy(self, proxy):
        with pytest.raises(ValueError, match="proxy must be positive and finite"):
            SubGaussianTail(proxy)

    def test_dominates_gaussian_of_same_scale(self):
        # the proxy form is a bound, never tighter than the exact tail
        sub, g = SubGaussianTail(1.0), GaussianTail(1.0)
        r = np.linspace(0, 6, 61)
        assert np.all(sub.sf(r) >= g.sf(r) - 1e-15)


class TestEmpiricalTail:
    def test_step_knots(self):
        t = EmpiricalTail([3.0, 1.0, 2.0])  # sorting is the model's job
        assert t.sf(0.0) == 1.0
        assert t.sf(1.0) == pytest.approx(2 / 3)
        assert t.sf(2.0) == pytest.approx(1 / 3)
        assert t.sf(3.0) == 0.0
        assert t.sf(99.0) == 0.0
        assert t.sf(1.5) == pytest.approx(0.5)  # linear between knots

    def test_isf_inverts_sf_on_knots(self):
        values = np.array([0.5, 1.25, 2.0, 4.0])
        t = EmpiricalTail(values)
        for r in values[:-1]:  # the top knot has sf 0, which isf guards
            assert t.isf(t.sf(r)) == pytest.approx(r, abs=1e-12)
        assert t.isf(1.0) == 0.0
        assert t.isf(1e-12) == pytest.approx(4.0, abs=1e-9)
        with pytest.raises(ValueError):
            t.isf(0.0)

    def test_zero_values_make_no_knot(self):
        # 2 zeros of 4: S(0) = 1, and the first knot after (0, 1) is the
        # smallest positive value at 1 - 3/4
        t = EmpiricalTail([0.0, 2.0, 0.0, 1.0])
        assert t.sf(0.0) == 1.0
        assert t.sf(1.0) == pytest.approx(0.25)
        assert t.sf(0.5) == pytest.approx(0.625)
        assert t.isf(0.625) == pytest.approx(0.5)
        zeros = EmpiricalTail([0.0, 0.0])
        assert (zeros.sf(0.0), zeros.sf(1e-9), zeros.isf(0.5)) == (1.0, 0.0, 0.0)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            EmpiricalTail([])
        with pytest.raises(ValueError):
            EmpiricalTail([1.0, -2.0])
        with pytest.raises(ValueError):
            EmpiricalTail([np.nan])


class TestUnionBound:
    def test_sum_of_marginals_clamped(self):
        b = UnionBound((GaussianTail(1.0), SubGaussianTail(1.0), GaussianTail(2.0)))
        w = np.array([1.0, 2.0, 3.0])
        expected = min(1.0, GaussianTail(1.0).sf(1.0) + SubGaussianTail(1.0).sf(2.0)
                       + GaussianTail(2.0).sf(3.0))
        assert b.exceedance(w) == pytest.approx(expected, rel=1e-14)
        assert b.exceedance(np.zeros(3)) == 1.0
        assert b.m == 3
        assert not b.exchangeable

    def test_one_family_fast_path(self):
        models = (GaussianTail(1.0),) * 4
        b = UnionBound(models)
        assert b.exchangeable
        w = np.abs(np.sin(np.arange(12.0))).reshape(3, 4) + 0.5
        rows = b.exceedance(w)
        assert rows.shape == (3,)
        slow = np.minimum(1.0, sum(models[j].sf(w[:, j]) for j in range(4)))
        np.testing.assert_allclose(rows, slow, rtol=1e-14)

    def test_equal_models_are_exchangeable(self):
        table = np.abs(np.random.default_rng(3).standard_t(5, size=50))
        assert UnionBound((GaussianTail(2.0), GaussianTail(2.0))).exchangeable
        assert not UnionBound((GaussianTail(2.0), GaussianTail(1.0))).exchangeable
        assert not UnionBound((SubGaussianTail(1.0), SubGaussianTail(1.5))).exchangeable
        assert UnionBound((EmpiricalTail(table), EmpiricalTail(table))).exchangeable
        assert not UnionBound((EmpiricalTail(table), EmpiricalTail(table[1:]))).exchangeable
        assert not UnionBound((GaussianTail(1.0), SubGaussianTail(1.0))).exchangeable

    def test_mixed_families_fill_their_own_columns(self):
        table = EmpiricalTail([0.5, 1.0, 4.0])
        models = (table, GaussianTail(2.0), SubGaussianTail(1.5), table, GaussianTail(0.5))
        b = UnionBound(models)
        w = np.array([[0.7, 1.0, 2.0, 3.0, 0.2], [5.0, 0.0, 9.0, 0.1, 4.0]])
        tails = np.array([[model.sf(v) for model, v in zip(models, row)] for row in w])
        np.testing.assert_allclose(b.exceedance(w), np.minimum(tails.sum(axis=1), 1.0),
                                   rtol=1e-15)

    def test_shape_errors(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        with pytest.raises(ValueError):
            b.exceedance(np.zeros(3))
        with pytest.raises(ValueError):
            UnionBound(())


class TestMonteCarloBound:
    def test_blocks_return_every_row_in_order(self):
        # 3 x 200k entries span several scan blocks; joined, they are the bank
        samples = np.random.default_rng(6).standard_normal((200_001, 3))
        b = MonteCarloBound(samples)
        assert b.m == 3 and b.n == 200_001
        blocks = list(b.blocks())
        assert len(blocks) > 1
        np.testing.assert_array_equal(np.concatenate(blocks), np.abs(samples))

    def test_accepts_sample_bank(self):
        b = MonteCarloBound(-np.ones((5, 2)), exchangeable=True)
        assert b.exchangeable
        np.testing.assert_array_equal(b.row_max, np.ones(5))

    def test_stores_one_read_only_abs_array(self):
        signed = np.array([[1.0, -2.0], [-0.5, 2.0]])
        b = MonteCarloBound(signed)
        np.testing.assert_array_equal(b.abs_samples, np.abs(signed))
        assert not b.abs_samples.flags.writeable
        assert not np.shares_memory(b.abs_samples, signed)  # private copy
        # a read-only |xi| array is adopted as is
        assert MonteCarloBound(b.abs_samples).abs_samples is b.abs_samples
        # one n x m array; beside it only the read-only n-vectors of row
        # maxima and of their columns, the first one on a tie
        arrays = [v for v in vars(b).values() if isinstance(v, np.ndarray)]
        assert [v.shape for v in arrays] == [(2, 2), (2,), (2,)]
        assert arrays[1] is b.row_max and not b.row_max.flags.writeable
        assert arrays[2] is b.row_arg and not b.row_arg.flags.writeable
        np.testing.assert_array_equal(b.row_arg, b.abs_samples.argmax(axis=1))
        np.testing.assert_array_equal(b.row_arg, [1, 1])  # row 0 as folded: |-2| > 1
        tied = MonteCarloBound(np.array([[0.5, 3.0, 3.0, -3.0], [2.0, 1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(tied.row_arg, [1, 0])
        np.testing.assert_array_equal(tied.row_arg, tied.abs_samples.argmax(axis=1))

    def test_read_only_bank_with_a_late_sign_is_folded(self):
        # 2 x 70k entries span three scan blocks; a sign bit (a negative
        # entry or a -0.0) in any block folds a private copy of the bank
        a = np.abs(np.random.default_rng(8).standard_normal((70_000, 2)))
        for row, value in ((60_000, -1.5), (40_000, -0.0)):
            signed = a.copy()
            signed[row, 1] = value
            signed.setflags(write=False)
            b = MonteCarloBound(signed)
            assert not np.shares_memory(b.abs_samples, signed)
            assert b.abs_samples.tobytes() == np.abs(signed).tobytes()
            assert b.row_max.tobytes() == b.abs_samples.max(axis=1).tobytes()

    def test_construction_keeps_no_bank_sized_temporary(self):
        # finiteness, signs and row maxima are checked block by block: no
        # n x m bool array (2 MB here) is made beside the adopted bank
        a = np.abs(np.random.default_rng(9).standard_normal((20_000, 100)))
        a.setflags(write=False)
        tracemalloc.start()
        try:
            b = MonteCarloBound(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.abs_samples is a
        assert peak < 0.5 * a.size  # bytes: a quarter of one bool per entry

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            MonteCarloBound(np.ones(4))
        with pytest.raises(ValueError):
            MonteCarloBound(np.array([[np.inf, 0.0]]))
        late = np.zeros((70_000, 2))
        late[-1, 0] = np.nan  # in the last scan block
        late.setflags(write=False)
        with pytest.raises(ValueError, match="finite"):
            MonteCarloBound(late)
        with pytest.raises(ValueError, match="non-empty"):
            MonteCarloBound(np.zeros((3, 0)))
