import math

import numpy as np
import pytest

from varnamer import gradcheck, training
from varnamer import losses as L
from varnamer.errors import LengthOutOfRange, ShapeMismatch, UnknownTokenId

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))   # 0.73105857...
SIGMOID_0 = 0.5


def uniform_probs(positions: int, vocab: int):
    return np.full((positions, vocab), 1.0 / vocab)


def onehot_probs(targets, vocab: int):
    probs = np.zeros((len(targets), vocab))
    for i, t in enumerate(targets):
        probs[i, t] = 1.0
    return probs


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def triple_with_cosines(cos_after: float, cos_before: float, dim: int = 8):
    """Unit vectors (gen, after, before) with prescribed cosines against gen."""
    gen = np.zeros(dim)
    gen[0] = 1.0

    def against(c):
        v = np.zeros(dim)
        v[0] = c
        v[1] = math.sqrt(max(0.0, 1.0 - c * c))
        return v

    return gen, against(cos_after), against(cos_before)


def cl_value(triples, tau):
    gen, after, before = zip(*triples)
    return L.cl_loss(gen, after, before, tau).item()


class TestCmlmLoss:
    def test_onehot_is_zero(self):
        assert L.cmlm_loss(onehot_probs([3], vocab=8), [3]).item() == 0.0

    def test_uniform_single_position(self):
        assert abs(L.cmlm_loss(uniform_probs(1, 4), [0]).item() - math.log(4)) < 1e-9

    def test_additivity(self):
        assert abs(L.cmlm_loss(uniform_probs(2, 4), [0, 0]).item() - 2 * math.log(4)) < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_probability_clamped_and_warned(self, caplog):
        probs = np.zeros((1, 4))
        probs[0, 0] = 1.0
        with caplog.at_level("WARNING"):
            value = L.cmlm_loss(probs, [1]).item()
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12))
        assert any("clamped" in r.message for r in caplog.records)

    def test_order_sensitivity_counterexample(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1],
                          [0.1, 0.7, 0.1, 0.1]])
        assert L.cmlm_loss(probs, [0, 1]).item() != L.cmlm_loss(probs, [1, 0]).item()

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_outside_the_vocabulary_rejected(self, target):
        # -1 would otherwise pick the last column
        with pytest.raises(UnknownTokenId, match=f"target id {target} outside 0..3"):
            L.cmlm_loss(uniform_probs(2, 4), [0, target])

    def test_one_target_per_row_required(self):
        with pytest.raises(ShapeMismatch, match="3 targets for 2 distribution rows"):
            L.cmlm_loss(uniform_probs(2, 4), [0, 1, 2])


class TestLpLoss:
    def test_onehot_is_zero(self):
        q = np.zeros((1, 5))
        q[0, 2] = 1.0
        assert L.lp_loss(q, [3]).item() == 0.0

    def test_uniform(self):
        q = np.full((1, 5), 0.2)
        assert abs(L.lp_loss(q, [4]).item() - math.log(5)) < 1e-9

    def test_half(self):
        q = np.array([[0.5, 0.3, 0.1, 0.05, 0.05]])
        assert abs(L.lp_loss(q, [1]).item() - math.log(2)) < 1e-9

    def test_out_of_range(self):
        q = np.full((1, 5), 0.2)
        with pytest.raises(LengthOutOfRange):
            L.lp_loss(q, [6])
        with pytest.raises(LengthOutOfRange):
            L.lp_loss(q, [0])


class TestBotDistribution:
    def test_onehot_values(self):
        z = L.bot_distribution(onehot_probs([2], vocab=4)).data
        assert abs(z[2] - SIGMOID_1) < 1e-9
        for j in (0, 1, 3):
            assert abs(z[j] - SIGMOID_0) < 1e-9

    def test_two_identical_rows_double(self):
        one = L.bot_distribution(uniform_probs(1, 6)).data
        two = L.bot_distribution(uniform_probs(2, 6)).data
        np.testing.assert_allclose(two, 2 * one, atol=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet(np.ones(8), size=3)
        a = L.bot_distribution(raw).data
        b = L.bot_distribution(raw[::-1].copy()).data
        np.testing.assert_array_equal(a, b)

    def test_entry_bounds(self):
        rng = np.random.default_rng(1)
        for g in (1, 2, 5):
            raw = rng.dirichlet(np.ones(16), size=g)
            z = L.bot_distribution(raw).data
            assert np.all(z > 0.5 * g)
            assert np.all(z < 0.7311 * g)


class TestBotLoss:
    def test_target_permutation_bit_identical(self):
        rng = np.random.default_rng(2)
        raw = rng.dirichlet(np.ones(10), size=4)
        z = L.bot_distribution(raw)
        a = L.bot_loss(z, [1, 3, 5, 7]).item()
        b = L.bot_loss(z, [7, 5, 3, 1]).item()
        c = L.bot_loss(z, [5, 1, 7, 3]).item()
        assert a == b == c

    def test_single_onehot_value(self):
        z = L.bot_distribution(onehot_probs([2], vocab=4))
        expected = -math.log(SIGMOID_1)
        assert abs(L.bot_loss(z, [2]).item() - expected) < 1e-9

    def test_matches_direct_formula_and_can_be_negative(self):
        rng = np.random.default_rng(3)
        seen_negative = False
        for _ in range(50):
            g = int(rng.integers(2, 6))
            raw = rng.dirichlet(np.ones(6), size=g)
            targets = rng.integers(0, 6, size=g).tolist()
            z = L.bot_distribution(raw)
            # independent evaluation of the written formula
            z_direct = (1.0 / (1.0 + np.exp(-raw))).sum(axis=0)
            expected = -sum(math.log(z_direct[t]) for t in targets)
            assert abs(L.bot_loss(z, targets).item() - expected) < 1e-9
            if expected < 0:
                seen_negative = True
        assert seen_negative  # z entries above 1 make the loss negative

    def test_target_outside_the_vocabulary_rejected(self):
        z = L.bot_distribution(uniform_probs(2, 4))
        with pytest.raises(UnknownTokenId, match="target id -1 outside 0..3"):
            L.bot_loss(z, [1, -1])


class TestClLoss:
    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.25])
    def test_equal_cosines_give_ln2(self, tau):
        triple = triple_with_cosines(0.3, 0.3)
        assert abs(cl_value([triple], tau) - math.log(2)) < 1e-9

    def test_perfect_separation_vanishes(self):
        triple = triple_with_cosines(1.0, -1.0)
        assert cl_value([triple], 0.05) < 1e-12

    def test_swapping_sides_increases_loss(self):
        gen, after, before = good = triple_with_cosines(0.8, 0.1)
        swapped = (gen, before, after)
        assert cl_value([swapped], 0.05) > cl_value([good], 0.05)

    def test_sum_over_triples(self):
        triples = [triple_with_cosines(0.3, 0.3), triple_with_cosines(0.1, 0.1)]
        assert abs(cl_value(triples, 0.1) - 2 * math.log(2)) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            triple = triple_with_cosines(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert cl_value([triple], float(rng.uniform(0.02, 0.5))) >= 0.0


class TestFineTuneLoss:
    """The stage-2 loss, ``training.tg_batch_loss``, on the toy example alone."""

    @staticmethod
    def _loss(**weights):
        params, example = gradcheck.toy_model()
        config = training.TrainConfig(**weights)
        total, parts = training.tg_batch_loss(params, [example], [None], config)
        return total.item(), parts, config, params, example

    def test_all_zero_weights(self):
        value, parts, *_ = self._loss(lambda_cmlm=0.0, lambda_bot=0.0, lambda_cl=0.0)
        assert value == 0.0
        assert parts == {}

    def test_cmlm_only_matches_exactly(self):
        value, _, _, params, example = self._loss(lambda_bot=0.0, lambda_cl=0.0)
        assert value == training.cmlm_batch_loss(params, [example.masked], [None])[0].item()

    def test_weighted_sum_matches_hand_computation(self):
        value, parts, config, *_ = self._loss(lambda_cmlm=1.0, lambda_bot=0.1,
                                              lambda_cl=1.0, tau=0.05)
        assert set(parts) == {"cmlm", "bot", "cl"}
        expected = (config.lambda_cmlm * parts["cmlm"] + config.lambda_bot * parts["bot"]
                    + config.lambda_cl * parts["cl"])
        assert abs(value - expected) < 1e-9
