from __future__ import annotations

import numpy as np
import pytest

from conftest import dmse_loss, dmse_oracle

from senticast.errors import ShapeError
from senticast.losses import dmse_loss_batch, mse_loss_batch
from senticast.nn import Tensor


class TestDmse:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=4)
            assert dmse_loss(y, y, anchor=float(rng.normal())) == 0.0

    def test_single_step_wrong_direction(self):
        # truth moves +1, prediction moves -1: 10^3 * (2 - 0)^2
        assert dmse_loss([0.0], [2.0], anchor=1.0) == 4000.0

    def test_two_step_agreeing_directions(self):
        # step 1: truth flat (product 0 counts as agreement), step 2: both rise
        assert dmse_loss([1.5, 2.5], [1.0, 2.0], anchor=1.0) == 0.25

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = int(rng.integers(1, 6))
            truth = rng.normal(size=h)
            pred = rng.normal(size=h)
            anchor = float(rng.normal())
            assert dmse_loss(pred, truth, anchor) == pytest.approx(
                dmse_oracle(pred, truth, anchor), abs=1e-12
            )

    def test_equals_mse_when_directions_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = int(rng.integers(1, 6))
            truth = np.sort(rng.normal(size=h))  # monotone up
            pred = truth + 0.1  # same movements
            anchor = float(truth[0] - 1.0)
            mse = float(np.mean((truth - pred) ** 2))
            assert dmse_loss(pred, truth, anchor) == pytest.approx(mse, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = int(rng.integers(1, 6))
            assert dmse_loss(rng.normal(size=h), rng.normal(size=h), float(rng.normal())) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dmse_loss([1.0, 2.0], [1.0], anchor=0.0)

    def test_batch_version_matches_scalar_version(self):
        rng = np.random.default_rng(11)
        pred = rng.normal(size=(6, 3))
        truth = rng.normal(size=(6, 3))
        anchor = rng.normal(size=6)
        batch = dmse_loss_batch(Tensor(pred), truth, anchor).item()
        singles = [dmse_loss(pred[i], truth[i], float(anchor[i])) for i in range(6)]
        assert batch == pytest.approx(float(np.mean(singles)), abs=1e-12)

    def test_custom_alpha(self):
        assert dmse_loss([0.0], [2.0], anchor=1.0, alpha=10.0) == 40.0


class TestMseBatch:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(4, 3))
        truth = rng.normal(size=(4, 3))
        loss = mse_loss_batch(Tensor(pred), truth).item()
        assert loss == pytest.approx(float(np.mean((truth - pred) ** 2)), abs=1e-12)

    def test_gradient_flows_to_prediction(self):
        from senticast.nn import Parameter

        pred = Parameter(np.zeros((2, 2)), "pred")
        truth = np.ones((2, 2))
        loss = mse_loss_batch(pred, truth)
        loss.backward()
        assert np.allclose(pred.grad, -2.0 * (truth - 0.0) / 4)
