import math
import tracemalloc

import numpy as np
import pytest

from zoomcurse.sampling import BLOCK_ROWS, EquicorrelatedSampler, draw_bank, mc_order_index
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

    def test_empty_bank_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            draw_bank(EquicorrelatedSampler(2, 0.0), 0, seed=0)

    def test_non_integral_counts_refused(self):
        # seed 1.5 used to draw seed 1's bank, and a 2.5-wide sampler was
        # built only to fail when it drew
        sampler = EquicorrelatedSampler(2, 0.0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw_bank(sampler, 10, seed=1.5)
        with pytest.raises(ValueError, match="n must be an integer"):
            draw_bank(sampler, 10.0, seed=1)
        with pytest.raises(ValueError, match="m must be an integer"):
            EquicorrelatedSampler(2.5)
        assert draw_bank(EquicorrelatedSampler(np.int64(2)), np.int32(10),
                         seed=np.uint8(1)).abs_samples.tobytes() == \
            draw_bank(sampler, 10, seed=1).abs_samples.tobytes()


class TestMcQuantile:
    """The order index of the conservative Monte-Carlo quantile."""

    def test_order_index(self):
        assert mc_order_index(0.9, 10) == 9
        assert mc_order_index(0.95, 10) == 10
        assert mc_order_index(0.9, 100_000) == 90_000  # float round-up guard
        assert mc_order_index(1e-9, 5) == 1
        with pytest.raises(ValueError):
            mc_order_index(1.0, 10)
        with pytest.raises(ValueError):
            mc_order_index(0.5, 0)
