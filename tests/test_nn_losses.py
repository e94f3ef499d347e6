"""Tests for loss functions, including the differentiable SSIM loss."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.metrics.msssim import ms_ssim_and_grad
from repro.metrics.ssim import ssim, ssim_and_grad
from repro.nn import (
    HuberLoss,
    MAELoss,
    MSELoss,
    MSSSIMLoss,
    SSIMLoss,
    check_loss_gradients,
)


class TestMSELoss:
    def test_zero_for_identical(self, rng):
        x = rng.random((3, 8))
        assert MSELoss().forward(x, x) == 0.0

    def test_known_value(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        assert MSELoss().forward(pred, target) == pytest.approx(2.5)

    def test_gradient(self, rng):
        check_loss_gradients(MSELoss(), rng.random((2, 6)), rng.random((2, 6)))

    def test_per_sample(self, rng):
        pred = rng.random((4, 5))
        target = rng.random((4, 5))
        per = MSELoss().per_sample(pred, target)
        assert per.shape == (4,)
        assert per.mean() == pytest.approx(MSELoss().forward(pred, target))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            MSELoss().forward(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            MSELoss().backward()


class TestMAELoss:
    def test_known_value(self):
        assert MAELoss().forward(np.array([[3.0]]), np.array([[1.0]])) == 2.0

    def test_gradient_away_from_kink(self, rng):
        pred = rng.random((2, 5)) + 2.0
        target = rng.random((2, 5))
        check_loss_gradients(MAELoss(), pred, target)

    def test_per_sample_shape(self, rng):
        assert MAELoss().per_sample(rng.random((3, 4)), rng.random((3, 4))).shape == (3,)


class TestHuberLoss:
    def test_quadratic_inside_delta(self):
        loss = HuberLoss(delta=1.0)
        assert loss.forward(np.array([[0.5]]), np.array([[0.0]])) == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        loss = HuberLoss(delta=1.0)
        # |diff| = 3 -> delta*(3 - delta/2) = 2.5
        assert loss.forward(np.array([[3.0]]), np.array([[0.0]])) == pytest.approx(2.5)

    def test_gradient(self, rng):
        pred = rng.normal(size=(2, 6)) * 3
        target = rng.normal(size=(2, 6))
        check_loss_gradients(HuberLoss(delta=1.0), pred, target)

    def test_matches_mse_for_large_delta(self, rng):
        pred, target = rng.random((2, 4)), rng.random((2, 4))
        huber = HuberLoss(delta=100.0).forward(pred, target)
        mse = MSELoss().forward(pred, target)
        assert huber == pytest.approx(mse / 2.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ConfigurationError):
            HuberLoss(delta=0.0)

    def test_per_sample(self, rng):
        per = HuberLoss().per_sample(rng.random((5, 3)), rng.random((5, 3)))
        assert per.shape == (5,)


class TestSSIMLoss:
    IMAGE = (12, 14)

    def _loss(self, window=5):
        return SSIMLoss(self.IMAGE, window_size=window)

    def test_zero_for_identical(self, rng):
        x = rng.random((3, self.IMAGE[0] * self.IMAGE[1]))
        assert self._loss().forward(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_matches_metric(self, rng):
        h, w = self.IMAGE
        pred = rng.random((2, h * w))
        target = rng.random((2, h * w))
        loss_value = self._loss().forward(pred, target)
        metric = ssim(
            target.reshape(2, h, w), pred.reshape(2, h, w), window_size=5
        ).mean()
        assert loss_value == pytest.approx(1.0 - metric)

    def test_gradient_flat_input(self, rng):
        h, w = self.IMAGE
        pred = rng.random((2, h * w))
        target = rng.random((2, h * w))
        check_loss_gradients(self._loss(), pred, target, tolerance=1e-4)

    def test_gradient_image_input(self, rng):
        h, w = self.IMAGE
        pred = rng.random((2, h, w))
        target = rng.random((2, h, w))
        check_loss_gradients(self._loss(), pred, target, tolerance=1e-4)

    def test_gradient_gaussian_window(self, rng):
        h, w = self.IMAGE
        loss = SSIMLoss(self.IMAGE, window_size=5, window="gaussian")
        check_loss_gradients(loss, rng.random((1, h * w)), rng.random((1, h * w)), tolerance=1e-4)

    def test_per_sample_orientation(self, rng):
        """Noisier reconstructions must incur larger loss."""
        h, w = self.IMAGE
        target = rng.random((1, h * w))
        mild = target + rng.normal(0, 0.05, target.shape)
        severe = target + rng.normal(0, 0.5, target.shape)
        loss = self._loss()
        assert loss.per_sample(severe, target)[0] > loss.per_sample(mild, target)[0]

    def test_rejects_bad_shapes(self):
        loss = self._loss()
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((2, 7)), np.zeros((2, 7)))

    def test_rejects_bad_image_shape(self):
        with pytest.raises(ConfigurationError):
            SSIMLoss((0, 5))

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            self._loss().backward()

    def test_loss_bounded(self, rng):
        """SSIM in [-1, 1] implies loss in [0, 2]."""
        h, w = self.IMAGE
        for _ in range(5):
            value = self._loss().forward(rng.random((1, h * w)), rng.random((1, h * w)))
            assert 0.0 <= value <= 2.0


class TestScoringSkipsTheGradient:
    """``per_sample`` scores without the gradient; the scores must match
    the gradient path's bitwise, or every serving verdict would drift."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize(
        "loss, with_grad",
        [
            (SSIMLoss((24, 64)), ssim_and_grad),
            (SSIMLoss((60, 160)), ssim_and_grad),
            (MSSSIMLoss((24, 64), scales=3, window_size=5), ms_ssim_and_grad),
            (MSSSIMLoss((60, 160)), ms_ssim_and_grad),
        ],
        ids=["ssim-24x64", "ssim-60x160", "msssim-24x64", "msssim-60x160"],
    )
    def test_per_sample_matches_gradient_path(self, rng, loss, with_grad, batch, dtype):
        h, w = loss.image_shape
        target = rng.random((batch, h, w)).astype(dtype)
        pred = np.clip(target + rng.normal(0, 0.1, target.shape), 0, 1).astype(dtype)
        kwargs = {"window_size": loss.window_size, "window": loss.window}
        if isinstance(loss, MSSSIMLoss):
            kwargs["scales"] = loss.scales
        scores, _ = with_grad(target, pred, **kwargs)
        per = loss.per_sample(pred, target)
        assert per.dtype == dtype
        np.testing.assert_array_equal(per, 1.0 - np.atleast_1d(scores))
