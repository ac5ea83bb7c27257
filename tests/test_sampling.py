import math
import tracemalloc

import numpy as np
import pytest

from zoomcurse.sampling import (BLOCK_ROWS, DiagonalGaussianSampler,
                                EquicorrelatedSampler, draw_bank, m_statistic,
                                mc_order_index, mc_quantile)
from zoomcurse.tails import MonteCarloBound


class TestEquicorrelatedSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            EquicorrelatedSampler(0, 0.0)
        with pytest.raises(ValueError):
            EquicorrelatedSampler(3, 1.0)
        with pytest.raises(ValueError):
            EquicorrelatedSampler(3, -0.1)

    def test_moments(self):
        s = EquicorrelatedSampler(4, 0.6)
        x = s.draw(np.random.default_rng(0), 200_000)
        assert x.shape == (200_000, 4)
        assert np.allclose(x.std(axis=0), 1.0, atol=0.02)
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.6, atol=0.02)

    def test_rho_zero_is_independent_stream(self):
        # same generator state, rho=0: output equals the z-block alone
        s = EquicorrelatedSampler(3, 0.0)
        rng = np.random.default_rng(42)
        rng.standard_normal(5)  # burn the shared-factor block
        expected = rng.standard_normal((5, 3))
        got = s.draw(np.random.default_rng(42), 5)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        assert s.exchangeable

    @pytest.mark.parametrize("m, rho", [(25, 0.5), (10, 0.0), (3, 0.3)])
    def test_bank_is_the_two_term_formula_bit_for_bit(self, m, rho):
        # the sum sqrt(rho) Z0 + sqrt(1 - rho) Z, formed as two products and
        # one addition from each block's generator, over two blocks
        n = BLOCK_ROWS + 100
        bank = draw_bank(EquicorrelatedSampler(m, rho), n, seed=17).abs_samples
        blocks = []
        for block in range(-(-n // BLOCK_ROWS)):
            rng = np.random.default_rng(np.random.SeedSequence([17, block]))
            z0 = rng.standard_normal(BLOCK_ROWS)
            z = rng.standard_normal((BLOCK_ROWS, m))
            blocks.append(np.abs(math.sqrt(rho) * z0[:, None] + math.sqrt(1.0 - rho) * z))
        assert bank.tobytes() == np.concatenate(blocks)[:n].tobytes()

    def test_a_block_draw_keeps_one_block_array(self):
        s, rows = EquicorrelatedSampler(50, 0.5), 4096
        block_bytes = rows * s.m * 8
        tracemalloc.start()
        try:
            out = s.draw(np.random.default_rng(0), rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, s.m)
        # the block itself plus the common factor; the two-term sum held three
        assert peak < 1.25 * block_bytes


class TestDiagonalGaussianSampler:
    def test_scaling(self):
        s = DiagonalGaussianSampler((1.0, 3.0))
        x = s.draw(np.random.default_rng(1), 100_000)
        assert np.allclose(x.std(axis=0), [1.0, 3.0], rtol=0.03)
        assert not s.exchangeable
        assert DiagonalGaussianSampler((2.0, 2.0)).exchangeable

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalGaussianSampler(())
        with pytest.raises(ValueError):
            DiagonalGaussianSampler((1.0, 0.0))


class TestTableBank:
    # a fixed table of draws is its own bank: MonteCarloBound(rows), with
    # the CLI keeping the table's first --mc-samples rows
    def test_first_rows_fold_into_a_read_only_copy(self):
        rows = np.arange(8.0).reshape(4, 2) - 2.5
        bank = MonteCarloBound(rows[:3])
        np.testing.assert_array_equal(bank.abs_samples, np.abs(rows[:3]))
        assert not bank.exchangeable and not bank.abs_samples.flags.writeable
        assert rows[0, 0] == -2.5  # the table itself is left alone


class TestDrawBank:
    def test_deterministic_and_seed_sensitive(self):
        s = EquicorrelatedSampler(2, 0.3)
        a = draw_bank(s, 1000, seed=7)
        b = draw_bank(s, 1000, seed=7)
        c = draw_bank(s, 1000, seed=8)
        np.testing.assert_array_equal(a.abs_samples, b.abs_samples)
        assert not np.array_equal(a.abs_samples, c.abs_samples)

    def test_holds_abs_of_the_block_draws(self):
        s = EquicorrelatedSampler(3, 0.2)
        rng = np.random.default_rng(np.random.SeedSequence([5, 0]))
        signed = s.draw(rng, BLOCK_ROWS)[:100]
        bank = draw_bank(s, 100, seed=5)
        assert isinstance(bank, MonteCarloBound) and bank.exchangeable
        np.testing.assert_array_equal(bank.abs_samples, np.abs(signed))

    def test_prefix_property_across_blocks(self):
        # growing the bank must never change the rows already drawn
        s = EquicorrelatedSampler(2, 0.0)
        small = draw_bank(s, BLOCK_ROWS + 10, seed=3)
        big = draw_bank(s, BLOCK_ROWS + 500, seed=3)
        np.testing.assert_array_equal(small.abs_samples, big.abs_samples[:BLOCK_ROWS + 10])

    def test_bank_is_read_only(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.0), 10, seed=0)
        with pytest.raises(ValueError):
            bank.abs_samples[0, 0] = 99.0
        assert bank.n == 10 and bank.m == 2

    @pytest.mark.parametrize("exchangeable", [False, True])
    def test_any_sampler_with_m_exchangeable_and_draw(self, exchangeable):
        # draw_bank reads only m, exchangeable and draw(rng, n) off a sampler
        class Shifted:
            m = 2

            def __init__(self):
                self.exchangeable = exchangeable

            def draw(self, rng, n):
                return rng.standard_normal((n, self.m)) - 1.0

        n = BLOCK_ROWS + 7
        bank = draw_bank(Shifted(), n, seed=4)
        blocks = [Shifted().draw(np.random.default_rng(np.random.SeedSequence([4, block])),
                                 BLOCK_ROWS) for block in (0, 1)]
        assert bank.abs_samples.tobytes() == np.abs(np.concatenate(blocks)[:n]).tobytes()
        assert bank.exchangeable is exchangeable

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed"):
            draw_bank(EquicorrelatedSampler(2, 0.0), 10, seed=-1)


class TestMStatistic:
    def test_hand_example(self):
        bank = MonteCarloBound(np.array([[3.0, -1.0], [0.5, 2.0]]))
        out = m_statistic(bank, np.array([2.0, 5.0]))
        # row 1: only |3| clears its half-gap 1; row 2: nothing clears
        np.testing.assert_array_equal(out, [3.0, 0.0])

    def test_infinite_gap_knocks_out_coordinate(self):
        bank = MonteCarloBound(np.array([[9.0, 1.0]]))
        out = m_statistic(bank, np.array([np.inf, 0.0]))
        np.testing.assert_array_equal(out, [1.0])

    def test_zero_gaps_give_row_max_abs(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((50, 4))
        out = m_statistic(MonteCarloBound(samples), np.zeros(4))
        np.testing.assert_allclose(out, np.abs(samples).max(axis=1), rtol=1e-15)

    @pytest.mark.parametrize("make", ["drawn", "drawn-2-blocks", "table", "signed"])
    def test_zero_gaps_return_the_bank_row_maxima(self, make):
        rng = np.random.default_rng(4)
        if make.startswith("drawn"):
            n = 70_000 if make == "drawn-2-blocks" else 5_000
            bank = draw_bank(EquicorrelatedSampler(3, 0.5), n, seed=9)
        elif make == "table":
            rows = rng.normal(size=(40, 3))
            rows[::4] = 0.0  # all-zero rows, one of them signed zeros
            rows[4] = -0.0
            bank = MonteCarloBound(rows)
        else:
            bank = MonteCarloBound(rng.normal(size=(30, 5)))
        a = bank.abs_samples
        out = m_statistic(bank, np.zeros(bank.m))
        # bit for bit the per-row scan that nonzero gaps still make
        assert out.tobytes() == np.where(a > 0.0, a, 0.0).max(axis=1).tobytes()
        assert out is bank.row_max and not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0

    def test_only_nonzero_gaps_scan_the_bank(self, monkeypatch):
        bank = draw_bank(EquicorrelatedSampler(4, 0.3), 3_000, seed=2)
        scans, blocks = [], MonteCarloBound.blocks

        def counted(self):
            scans.append(1)
            return blocks(self)

        monkeypatch.setattr(MonteCarloBound, "blocks", counted)
        m_statistic(bank, np.zeros(4))
        assert scans == []
        gaps = np.array([0.0, 1.0, 0.0, 3.0])
        out = m_statistic(bank, gaps)
        assert scans == [1]
        a = bank.abs_samples
        assert out.tobytes() == np.where(a > 0.5 * gaps, a, 0.0).max(axis=1).tobytes()

    def test_validation(self):
        bank = MonteCarloBound(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m_statistic(bank, np.array([1.0]))
        with pytest.raises(ValueError):
            m_statistic(bank, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            m_statistic(bank, np.array([1.0, np.nan]))


class TestMcQuantile:
    def test_order_index(self):
        assert mc_order_index(0.9, 10) == 9
        assert mc_order_index(0.95, 10) == 10
        assert mc_order_index(0.9, 100_000) == 90_000  # float round-up guard
        assert mc_order_index(1e-9, 5) == 1
        with pytest.raises(ValueError):
            mc_order_index(1.0, 10)
        with pytest.raises(ValueError):
            mc_order_index(0.5, 0)

    def test_quantile_is_exact_order_statistic(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1001)
        for level in (0.5, 0.9, 0.975):
            k = mc_order_index(level, 1001)
            assert mc_quantile(values, level) == np.sort(values)[k - 1]

    def test_quantile_conservative_side(self):
        values = np.arange(1.0, 11.0)  # 1..10
        assert mc_quantile(values, 0.9) == 9.0
        assert mc_quantile(values, 0.901) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_quantile(np.array([]), 0.5)
        with pytest.raises(ValueError):
            mc_quantile(np.array([1.0, np.nan]), 0.5)
