"""Tests for the functional backend: the dtype policy and the pure kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.nn.backend import (
    DTypePolicy,
    FLOAT32,
    FLOAT64,
    as_tensor,
    default_policy,
    kernels,
    resolve_dtype,
    result_dtype,
)
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dense,
    Dropout,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.model import Sequential
from repro.nn.optim import Adam


class TestPolicy:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == FLOAT64
        assert default_policy().dtype == FLOAT64

    @pytest.mark.parametrize("spec", ["float32", np.float32, FLOAT32])
    def test_float32_specs_resolve(self, spec):
        assert resolve_dtype(spec) == FLOAT32

    def test_policy_object_resolves_to_its_dtype(self):
        assert resolve_dtype(DTypePolicy("float32")) == FLOAT32

    @pytest.mark.parametrize("spec", ["float16", "int32", "double precision"])
    def test_unsupported_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="dtype"):
            resolve_dtype(spec)

    def test_policy_validates_name(self):
        with pytest.raises(ConfigurationError):
            DTypePolicy("float16")

    def test_as_tensor_default_and_explicit(self):
        assert as_tensor([1, 2, 3]).dtype == FLOAT64
        assert as_tensor([1, 2, 3], "float32").dtype == FLOAT32

    def test_result_dtype_is_float32_only_when_all_are(self):
        f32 = np.zeros(3, dtype=FLOAT32)
        f64 = np.zeros(3, dtype=FLOAT64)
        assert result_dtype(f32, f32) == FLOAT32
        assert result_dtype(f32, f64) == FLOAT64
        assert result_dtype() == FLOAT64


@pytest.mark.parametrize("dtype", [FLOAT32, FLOAT64])
class TestKernelDtypePreservation:
    """Every kernel computes in the dtype of its inputs."""

    def test_conv2d(self, dtype, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = np.zeros(4, dtype=dtype)
        out, cols = kernels.conv2d_forward(x, w, b, (1, 1), (1, 1))
        assert out.dtype == dtype
        gx, gw, gb = kernels.conv2d_backward(
            np.ones_like(out), cols, x.shape, w, (1, 1), (1, 1)
        )
        assert gx.dtype == dtype and gw.dtype == dtype and gb.dtype == dtype

    def test_conv_transpose2d(self, dtype, rng):
        x = rng.standard_normal((2, 1, 5, 5)).astype(dtype)
        w = np.ones((1, 1, 3, 3), dtype=dtype)
        assert kernels.conv_transpose2d(x, w, 2, 0).dtype == dtype

    def test_dense(self, dtype, rng):
        x = rng.standard_normal((4, 6)).astype(dtype)
        w = rng.standard_normal((6, 3)).astype(dtype)
        b = np.zeros(3, dtype=dtype)
        out = kernels.dense_forward(x, w, b)
        assert out.dtype == dtype
        gx, gw, gb = kernels.dense_backward(np.ones_like(out), x, w)
        assert gx.dtype == dtype and gw.dtype == dtype and gb.dtype == dtype

    def test_pooling(self, dtype, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(dtype)
        geometry = ((2, 2), (2, 2), (0, 0))
        out, argmax = kernels.maxpool2d_forward(x, *geometry)
        assert out.dtype == dtype
        grad = kernels.maxpool2d_backward(np.ones_like(out), argmax, x.shape, *geometry)
        assert grad.dtype == dtype
        avg_out = kernels.avgpool2d_forward(x, *geometry)
        assert avg_out.dtype == dtype
        assert kernels.avgpool2d_backward(
            np.ones_like(avg_out), x.shape, *geometry
        ).dtype == dtype

    def test_activations(self, dtype, rng):
        x = rng.standard_normal((3, 5)).astype(dtype)
        out, mask = kernels.relu_forward(x)
        assert out.dtype == dtype
        assert kernels.relu_backward(np.ones_like(out), mask).dtype == dtype
        out = kernels.sigmoid_forward(x)
        assert out.dtype == dtype
        assert kernels.sigmoid_backward(np.ones_like(out), out).dtype == dtype
        out = kernels.tanh_forward(x)
        assert out.dtype == dtype
        assert kernels.tanh_backward(np.ones_like(out), out).dtype == dtype
        out, mask = kernels.leaky_relu_forward(x, 0.1)
        assert out.dtype == dtype
        assert kernels.leaky_relu_backward(np.ones_like(out), mask, 0.1).dtype == dtype


class TestBoxSum2d:
    """``box_sum2d`` is the ones-kernel transposed convolution, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        batch=st.integers(1, 3),
        dtype=st.sampled_from([FLOAT64, FLOAT32]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_conv_transpose_with_ones(
        self, kernel, stride, padding, size, batch, dtype, seed
    ):
        for axis in (0, 1):
            out = (size[axis] - 1) * stride[axis] + kernel[axis] - 2 * padding[axis]
            assume(out > 0)
        x = np.random.default_rng(seed).random((batch, 1) + size).astype(dtype)
        ones = np.ones((1, 1) + kernel, dtype=dtype)
        expected = kernels.conv_transpose2d(x, ones, stride, padding)
        actual = kernels.box_sum2d(x, kernel, stride, padding)
        assert actual.dtype == dtype
        np.testing.assert_array_equal(actual, expected)


class TestConvTransposeCoercion:
    def test_non_float_input_coerced_to_float64(self):
        out = kernels.conv_transpose2d(
            np.ones((1, 1, 3, 3), dtype=np.int64), np.ones((1, 1, 2, 2))
        )
        assert out.dtype == FLOAT64


class TestLayerPolicy:
    def test_set_policy_casts_parameters(self, rng):
        layer = Conv2d(1, 2, 3, rng=0)
        layer.set_policy("float32")
        assert layer.dtype == FLOAT32
        assert all(p.dtype == FLOAT32 for p in layer.parameters())
        out = layer.forward(rng.standard_normal((1, 1, 6, 6)), training=False)
        assert out.dtype == FLOAT32

    def test_set_policy_casts_batchnorm_buffers(self):
        layer = BatchNorm2d(3)
        layer.set_policy("float32")
        assert layer.running_mean.dtype == FLOAT32
        assert layer.running_var.dtype == FLOAT32

    def test_sequential_propagates_policy(self, rng):
        model = Sequential([Dense(4, 3, rng=0), ReLU(), Dense(3, 1, rng=1)])
        assert model.set_policy("float32") is model
        assert model.dtype == FLOAT32
        out = model.forward(rng.standard_normal((2, 4)), training=False)
        assert out.dtype == FLOAT32
        model.set_policy("float64")
        assert model.forward(rng.standard_normal((2, 4)), training=False).dtype == FLOAT64

    def test_float32_weights_roundtrip_through_float64(self):
        model = Sequential([Dense(4, 3, rng=0)])
        before = {k: v.copy() for k, v in model.state_dict().items()}
        model.set_policy("float32").set_policy("float64")
        after = model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(
                value.astype(FLOAT32).astype(FLOAT64), after[key]
            )

    def test_dropout_mask_stream_matches_across_policies(self, rng):
        x = rng.standard_normal((64, 16))
        d64 = Dropout(0.5, rng=7)
        d32 = Dropout(0.5, rng=7).set_policy("float32")
        out64 = d64.forward(x, training=True)
        out32 = d32.forward(x.astype(FLOAT32), training=True)
        np.testing.assert_array_equal(out64 == 0.0, out32 == 0.0)

    @pytest.mark.parametrize(
        "layer",
        [
            Conv2d(1, 2, 3, rng=0),
            ConvTranspose2d(2, 1, 3, rng=0),
            Dense(6, 3, rng=0),
            MaxPool2d(2),
            AvgPool2d(2),
            ReLU(),
            LeakyReLU(0.1),
            Sigmoid(),
            Tanh(),
        ],
        ids=lambda layer: type(layer).__name__,
    )
    def test_float32_layers_run_forward_backward(self, layer, rng):
        layer.set_policy("float32")
        if isinstance(layer, (Conv2d, ConvTranspose2d, MaxPool2d, AvgPool2d)):
            x = rng.standard_normal((2, layer_in_channels(layer), 6, 6))
        else:
            x = rng.standard_normal((2, 6))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert out.dtype == FLOAT32 and grad.dtype == FLOAT32


def layer_in_channels(layer) -> int:
    return int(getattr(layer, "in_channels", 1))


class TestStateRestoreDtype:
    """State dicts restore arrays in the owning parameter's dtype."""

    def test_layer_state_restored_in_param_dtype(self):
        src = Dense(4, 3, rng=0)
        dst = Dense(4, 3, rng=1).set_policy("float32")
        dst.load_state_dict(src.state_dict())  # float64 arrays in
        assert all(p.dtype == FLOAT32 for p in dst.parameters())
        np.testing.assert_allclose(
            dst.parameters()[0].value, src.parameters()[0].value, rtol=1e-6
        )

    def test_optimizer_state_restored_in_param_dtype(self, rng):
        model = Sequential([Dense(4, 3, rng=0)])
        opt = Adam(model.parameters(), lr=1e-3)
        x, y = rng.standard_normal((8, 4)), rng.standard_normal((8, 3))
        grad = model.backward(model.forward(x, training=True) - y)
        assert grad is not None
        opt.step()
        state = opt.state_dict()

        model32 = Sequential([Dense(4, 3, rng=0)]).set_policy("float32")
        opt32 = Adam(model32.parameters(), lr=1e-3)
        opt32.load_state_dict(state)
        restored = opt32.state_dict()
        assert any(key != "step_count" for key in restored)
        for key, value in restored.items():
            if key != "step_count":
                assert value.dtype == FLOAT32, key


class TestGradcheckGuard:
    def test_float32_layer_rejected(self, rng):
        layer = Dense(4, 3, rng=0).set_policy("float32")
        with pytest.raises(ConfigurationError, match="float64"):
            check_layer_gradients(layer, rng.standard_normal((2, 4)))

    def test_float64_layer_accepted(self, rng):
        worst = check_layer_gradients(Dense(4, 3, rng=0), rng.standard_normal((2, 4)))
        assert worst < 1e-5
