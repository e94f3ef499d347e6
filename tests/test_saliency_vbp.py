"""Tests for VisualBackProp."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.models import PilotNet, PilotNetConfig
from repro.nn import Conv2d, Dense, Flatten, ReLU, Sequential
from repro.nn.backend import FLOAT32, FLOAT64
from repro.nn.layers.conv import conv_transpose2d
from repro.saliency import VisualBackProp
from repro.saliency.base import _normalize_per_image
from repro.saliency.vbp import _fit_to, find_conv_stages


@pytest.fixture
def tiny_cnn():
    return Sequential([
        Conv2d(1, 4, 3, stride=2, rng=0, name="c0"),
        ReLU(),
        Conv2d(4, 8, 3, rng=1, name="c1"),
        ReLU(),
        Flatten(),
        Dense(8 * 4 * 8, 1, rng=2, name="f"),
    ])


class TestFindConvStages:
    def test_finds_all_convs(self, tiny_cnn):
        stages = find_conv_stages(tiny_cnn)
        assert len(stages) == 2

    def test_feature_index_is_post_relu(self, tiny_cnn):
        stages = find_conv_stages(tiny_cnn)
        assert stages[0].feature_index == 1  # the ReLU after conv 0
        assert stages[1].feature_index == 3

    def test_conv_without_relu_uses_conv_output(self):
        model = Sequential([Conv2d(1, 2, 3, rng=0), Flatten(), Dense(2 * 4 * 4, 1, rng=1)])
        stages = find_conv_stages(model)
        assert stages[0].feature_index == 0

    def test_no_convs_raises(self):
        model = Sequential([Dense(4, 1, rng=0)])
        with pytest.raises(ConfigurationError):
            VisualBackProp(model)


class TestFitTo:
    def test_crop(self):
        mask = np.ones((1, 1, 6, 8))
        assert _fit_to(mask, (4, 5)).shape == (1, 1, 4, 5)

    def test_pad(self):
        mask = np.ones((1, 1, 3, 3))
        out = _fit_to(mask, (5, 6))
        assert out.shape == (1, 1, 5, 6)
        assert out[0, 0, 4, 5] == 0.0  # padded region is zero

    def test_noop(self):
        mask = np.ones((1, 1, 4, 4))
        np.testing.assert_array_equal(_fit_to(mask, (4, 4)), mask)


class TestVisualBackProp:
    def test_mask_shape_and_range(self, tiny_cnn, rng):
        vbp = VisualBackProp(tiny_cnn)
        masks = vbp.saliency(rng.random((3, 13, 21)))
        assert masks.shape == (3, 13, 21)
        assert masks.min() >= 0.0 and masks.max() <= 1.0

    def test_single_image_input(self, tiny_cnn, rng):
        mask = VisualBackProp(tiny_cnn).saliency(rng.random((13, 21)))
        assert mask.shape == (13, 21)

    def test_channel_explicit_input(self, tiny_cnn, rng):
        masks = VisualBackProp(tiny_cnn).saliency(rng.random((2, 1, 13, 21)))
        assert masks.shape == (2, 13, 21)

    def test_num_stages(self, tiny_cnn):
        assert VisualBackProp(tiny_cnn).num_stages == 2

    def test_deterministic(self, tiny_cnn, rng):
        x = rng.random((2, 13, 21))
        vbp = VisualBackProp(tiny_cnn)
        np.testing.assert_array_equal(vbp.saliency(x), vbp.saliency(x))

    def test_vbp_images_alias(self, tiny_cnn, rng):
        x = rng.random((2, 13, 21))
        vbp = VisualBackProp(tiny_cnn)
        np.testing.assert_array_equal(vbp.vbp_images(x), vbp.saliency(x))

    def test_wrong_channel_count_raises(self, rng):
        model = Sequential([Conv2d(3, 2, 3, rng=0), ReLU(), Flatten(), Dense(2 * 4 * 4, 1, rng=1)])
        with pytest.raises(ShapeError):
            VisualBackProp(model).saliency(rng.random((1, 1, 6, 6)))

    def test_rejects_bad_rank(self, tiny_cnn):
        with pytest.raises(ShapeError):
            VisualBackProp(tiny_cnn).saliency(np.zeros((2, 3, 13, 21, 1)))

    def test_dark_input_yields_flat_mask(self, tiny_cnn):
        """A zero input produces no activations and hence an all-zero mask."""
        masks = VisualBackProp(tiny_cnn).saliency(np.zeros((1, 13, 21)))
        assert masks.max() == 0.0

    def test_saliency_follows_bright_features(self, ci_workbench, trained_pilotnet, dsu_test):
        """On the driving data, saliency mass should prefer the (dilated)
        lane-marking region over uniform spread — the Figure 4 claim."""
        from repro.experiments.harness import saliency_concentration

        masks = VisualBackProp(trained_pilotnet).saliency(dsu_test.frames[:10])
        concentration = saliency_concentration(
            masks, dsu_test.marking_masks[:10], dilate=2
        )
        assert concentration > 1.0

    def test_works_on_pilotnet_paper_config(self, rng):
        net = PilotNet(PilotNetConfig.for_image((60, 160)), rng=0)
        masks = VisualBackProp(net).saliency(rng.random((1, 60, 160)))
        assert masks.shape == (1, 60, 160)


def _reference_masks(model, frames):
    """VBP masks with every upscaling step run as a transposed convolution
    with a ``(1, 1, kh, kw)`` all-ones kernel — the textbook form of the
    cascade that the library computes as a box-sum."""
    stages = find_conv_stages(model)
    _, activations = model.forward_with_activations(frames[:, None], training=False)
    maps = [activations[s.feature_index].mean(axis=1, keepdims=True) for s in stages]
    mask = None
    for level in range(len(stages) - 1, -1, -1):
        current = maps[level] if mask is None else maps[level] * mask
        peak = current.max(axis=(1, 2, 3), keepdims=True)
        current = current / np.where(peak > 0, peak, 1.0)
        conv = stages[level].conv
        ones = np.ones((1, 1) + conv.kernel_size, dtype=current.dtype)
        upscaled = conv_transpose2d(current, ones, conv.stride, conv.padding)
        target = maps[level - 1].shape[2:] if level > 0 else frames.shape[1:]
        mask = _fit_to(upscaled, target)
    return _normalize_per_image(mask[:, 0])


class TestBoxSumCascade:
    """The box-sum cascade is bitwise equal to the ones-kernel deconvolution."""

    @pytest.mark.parametrize("shape", [(60, 160), (24, 64)])
    @pytest.mark.parametrize("dtype", [FLOAT64, FLOAT32])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_masks_equal_ones_kernel_reference(self, shape, dtype, batch):
        net = PilotNet(PilotNetConfig.for_image(shape), rng=0).set_policy(dtype)
        frames = np.random.default_rng(batch).random((batch,) + shape).astype(dtype)
        masks = VisualBackProp(net).saliency(frames)
        assert masks.dtype == dtype
        np.testing.assert_array_equal(masks, _reference_masks(net, frames))
