import math

import numpy as np
import pytest

from varnamer import gradcheck, training
from varnamer import losses as L
from varnamer.errors import LengthOutOfRange

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))   # 0.73105857...
SIGMOID_0 = 0.5


def uniform_pred(positions: int, vocab: int, targets=None):
    probs = np.full((positions, vocab), 1.0 / vocab)
    targets = targets if targets is not None else [0] * positions
    return L.MaskedPrediction(probs=probs, target_ids=targets)


def onehot_pred(targets, vocab: int):
    probs = np.zeros((len(targets), vocab))
    for i, t in enumerate(targets):
        probs[i, t] = 1.0
    return L.MaskedPrediction(probs=probs, target_ids=list(targets))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def triple_with_cosines(cos_after: float, cos_before: float, dim: int = 8):
    """Construct unit vectors with prescribed cosines against gen."""
    gen = np.zeros(dim)
    gen[0] = 1.0

    def against(c):
        v = np.zeros(dim)
        v[0] = c
        v[1] = math.sqrt(max(0.0, 1.0 - c * c))
        return v

    return L.NameTriple(gen=gen, after=against(cos_after), before=against(cos_before))


class TestCmlmLoss:
    def test_onehot_is_zero(self):
        pred = onehot_pred([3], vocab=8)
        assert L.cmlm_loss(pred).item() == 0.0

    def test_uniform_single_position(self):
        pred = uniform_pred(1, 4)
        assert abs(L.cmlm_loss(pred).item() - math.log(4)) < 1e-9

    def test_additivity(self):
        pred = uniform_pred(2, 4)
        assert abs(L.cmlm_loss(pred).item() - 2 * math.log(4)) < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_probability_clamped_and_warned(self, caplog):
        probs = np.zeros((1, 4))
        probs[0, 0] = 1.0
        pred = L.MaskedPrediction(probs=probs, target_ids=[1])
        with caplog.at_level("WARNING"):
            value = L.cmlm_loss(pred).item()
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12))
        assert any("clamped" in r.message for r in caplog.records)

    def test_order_sensitivity_counterexample(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1],
                          [0.1, 0.7, 0.1, 0.1]])
        original = L.MaskedPrediction(probs=probs, target_ids=[0, 1])
        permuted = L.MaskedPrediction(probs=probs, target_ids=[1, 0])
        assert L.cmlm_loss(original).item() != L.cmlm_loss(permuted).item()


class TestLpLoss:
    def test_onehot_is_zero(self):
        q = np.zeros(5)
        q[2] = 1.0
        assert L.lp_loss(q, 3).item() == 0.0

    def test_uniform(self):
        q = np.full(5, 0.2)
        assert abs(L.lp_loss(q, 4).item() - math.log(5)) < 1e-9

    def test_half(self):
        q = np.array([0.5, 0.3, 0.1, 0.05, 0.05])
        assert abs(L.lp_loss(q, 1).item() - math.log(2)) < 1e-9

    def test_out_of_range(self):
        q = np.full(5, 0.2)
        with pytest.raises(LengthOutOfRange):
            L.lp_loss(q, 6)
        with pytest.raises(LengthOutOfRange):
            L.lp_loss(q, 0)


class TestBotDistribution:
    def test_onehot_values(self):
        z = L.bot_distribution(onehot_pred([2], vocab=4)).data
        assert abs(z[2] - SIGMOID_1) < 1e-9
        for j in (0, 1, 3):
            assert abs(z[j] - SIGMOID_0) < 1e-9

    def test_two_identical_rows_double(self):
        one = L.bot_distribution(uniform_pred(1, 6)).data
        two = L.bot_distribution(uniform_pred(2, 6)).data
        np.testing.assert_allclose(two, 2 * one, atol=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet(np.ones(8), size=3)
        a = L.bot_distribution(L.MaskedPrediction(probs=raw, target_ids=[0, 1, 2])).data
        b = L.bot_distribution(L.MaskedPrediction(probs=raw[::-1].copy(),
                                                  target_ids=[0, 1, 2])).data
        np.testing.assert_array_equal(a, b)

    def test_entry_bounds(self):
        rng = np.random.default_rng(1)
        for g in (1, 2, 5):
            raw = rng.dirichlet(np.ones(16), size=g)
            z = L.bot_distribution(L.MaskedPrediction(
                probs=raw, target_ids=[0] * g)).data
            assert np.all(z > 0.5 * g)
            assert np.all(z < 0.7311 * g)


class TestBotLoss:
    def test_target_permutation_bit_identical(self):
        rng = np.random.default_rng(2)
        raw = rng.dirichlet(np.ones(10), size=4)
        z = L.bot_distribution(L.MaskedPrediction(probs=raw, target_ids=[1, 3, 5, 7]))
        a = L.bot_loss(z, [1, 3, 5, 7]).item()
        b = L.bot_loss(z, [7, 5, 3, 1]).item()
        c = L.bot_loss(z, [5, 1, 7, 3]).item()
        assert a == b == c

    def test_single_onehot_value(self):
        z = L.bot_distribution(onehot_pred([2], vocab=4))
        expected = -math.log(SIGMOID_1)
        assert abs(L.bot_loss(z, [2]).item() - expected) < 1e-9

    def test_matches_direct_formula_and_can_be_negative(self):
        rng = np.random.default_rng(3)
        seen_negative = False
        for _ in range(50):
            g = int(rng.integers(2, 6))
            raw = rng.dirichlet(np.ones(6), size=g)
            targets = rng.integers(0, 6, size=g).tolist()
            pred = L.MaskedPrediction(probs=raw, target_ids=targets)
            z = L.bot_distribution(pred)
            # independent evaluation of the written formula
            z_direct = (1.0 / (1.0 + np.exp(-raw))).sum(axis=0)
            expected = -sum(math.log(z_direct[t]) for t in targets)
            assert abs(L.bot_loss(z, targets).item() - expected) < 1e-9
            if expected < 0:
                seen_negative = True
        assert seen_negative  # z entries above 1 make the loss negative


class TestClLoss:
    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.25])
    def test_equal_cosines_give_ln2(self, tau):
        triple = triple_with_cosines(0.3, 0.3)
        assert abs(L.cl_loss([triple], tau).item() - math.log(2)) < 1e-9

    def test_perfect_separation_vanishes(self):
        triple = triple_with_cosines(1.0, -1.0)
        assert L.cl_loss([triple], 0.05).item() < 1e-12

    def test_swapping_sides_increases_loss(self):
        good = triple_with_cosines(0.8, 0.1)
        swapped = L.NameTriple(gen=good.gen.data, after=good.before.data,
                               before=good.after.data)
        assert L.cl_loss([swapped], 0.05).item() > L.cl_loss([good], 0.05).item()

    def test_sum_over_triples(self):
        triples = [triple_with_cosines(0.3, 0.3), triple_with_cosines(0.1, 0.1)]
        assert abs(L.cl_loss(triples, 0.1).item() - 2 * math.log(2)) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            triple = triple_with_cosines(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert L.cl_loss([triple], float(rng.uniform(0.02, 0.5))).item() >= 0.0

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            L.cl_loss([triple_with_cosines(0.1, 0.1)], 0.0)

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            L.NameTriple(gen=np.array([2.0, 0.0]), after=np.array([1.0, 0.0]),
                         before=np.array([0.0, 1.0]))


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
