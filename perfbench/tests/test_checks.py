"""Each end-of-run check passes on the real operators and fails on a
broken operator substituted for the real one."""

import numpy as np
import pytest

from ascnet import convops, models, tensor

import checks
import workloads

ORIG = {name: getattr(convops, name) for name in (
    "asc_conv_forward", "asc_conv_backward", "conv_classic_forward",
    "conv_classic_backward", "conv_dilated_forward", "conv_dilated_backward")}


@pytest.fixture
def tensors():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 12, 12)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    rates = rng.uniform(0.3, 2.7, size=(1, 1, 12, 12)).astype(np.float32)
    asc = convops.ConvLayer(w, b, convops.ADAPTIVE)
    return x, asc, rates


def rng():
    return np.random.default_rng(1)


def test_all_checks_pass_on_real_operators(tensors):
    x, asc, rates = tensors
    classic = convops.ConvLayer(asc.weights, asc.bias, convops.CLASSIC)
    dilated = convops.ConvLayer(asc.weights, asc.bias, convops.DILATED, 3)
    for result in (
        checks.asc_adjoint(x, asc, rates, rng()),
        checks.asc_rate_gradient(x, asc, rates, rng()),
        checks.asc_vs_bilinear(x, rates, rng()),
        checks.rate_one_is_classic(x, asc),
        checks.int_adjoint(x, classic, rng()),
        checks.int_adjoint(x, dilated, rng()),
        checks.learning([1.0] * 20 + [0.5] * 20),
    ):
        assert result.ok, result


def test_rate_gradient_fails_on_zero_rate_gradient(tensors, monkeypatch):
    x, asc, rates = tensors

    def zero_rate_grad(*args, **kwargs):
        gx, gw, gb, gr = ORIG["asc_conv_backward"](*args, **kwargs)
        return gx, gw, gb, np.zeros_like(gr)

    monkeypatch.setattr(convops, "asc_conv_backward", zero_rate_grad)
    assert not checks.asc_rate_gradient(x, asc, rates, rng()).ok


def test_rate_gradient_fails_without_testable_rates(tensors):
    x, asc, _ = tensors
    ones = np.ones((1, 1, 12, 12), dtype=np.float32)
    assert not checks.asc_rate_gradient(x, asc, ones, rng()).ok


def _drop_corner(x, layer, rates, plan=None, return_cache=False):
    plan = convops.build_sampling_plan(rates, *x.shape[2:])
    plan.weight[:, 3] = 0.0
    return ORIG["asc_conv_forward"](x, layer, rates, plan=plan,
                                    return_cache=return_cache)


def test_bilinear_check_fails_when_forward_drops_a_corner(tensors, monkeypatch):
    x, _, rates = tensors
    monkeypatch.setattr(convops, "asc_conv_forward", _drop_corner)
    assert not checks.asc_vs_bilinear(x, rates, rng()).ok


def test_asc_adjoint_fails_when_forward_drops_a_corner(tensors, monkeypatch):
    x, asc, rates = tensors
    monkeypatch.setattr(convops, "asc_conv_forward", _drop_corner)
    assert not checks.asc_adjoint(x, asc, rates, rng()).ok


def test_asc_adjoint_fails_on_wrong_input_gradient(tensors, monkeypatch):
    x, asc, rates = tensors

    def half_grad_x(*args, **kwargs):
        gx, gw, gb, gr = ORIG["asc_conv_backward"](*args, **kwargs)
        return 0.5 * gx, gw, gb, gr

    monkeypatch.setattr(convops, "asc_conv_backward", half_grad_x)
    assert not checks.asc_adjoint(x, asc, rates, rng()).ok


def test_int_adjoint_fails_on_wrong_dilated_backward(tensors, monkeypatch):
    x, asc, _ = tensors
    dilated = convops.ConvLayer(asc.weights, asc.bias, convops.DILATED, 2)

    def wrong_rate(x_, layer, grad_y):
        other = convops.ConvLayer(layer.weights, layer.bias, convops.DILATED, layer.rate + 1)
        return ORIG["conv_dilated_backward"](x_, other, grad_y)

    monkeypatch.setattr(convops, "conv_dilated_backward", wrong_rate)
    assert not checks.int_adjoint(x, dilated, rng()).ok


def test_int_adjoint_fails_on_wrong_classic_weight_gradient(tensors, monkeypatch):
    x, asc, _ = tensors
    classic = convops.ConvLayer(asc.weights, asc.bias, convops.CLASSIC)

    def flipped(x_, layer, grad_y):
        gx, gw, gb = ORIG["conv_classic_backward"](x_, layer, grad_y)
        return gx, gw[:, :, ::-1, ::-1], gb

    monkeypatch.setattr(convops, "conv_classic_backward", flipped)
    assert not checks.int_adjoint(x, classic, rng()).ok


def test_rate_one_check_is_bit_exact(tensors, monkeypatch):
    x, asc, _ = tensors

    def one_ulp_off(x_, layer):
        y = ORIG["conv_classic_forward"](x_, layer)
        y[0, 0, 0, 0] = np.nextafter(y[0, 0, 0, 0], np.float32(np.inf))
        return y

    monkeypatch.setattr(convops, "conv_classic_forward", one_ulp_off)
    assert not checks.rate_one_is_classic(x, asc).ok


@pytest.fixture
def small_model():
    spec = models.ModelSpec(models.ASCNET7)
    rng_ = tensor.make_rng(5)
    model = models.build_model(spec, rng_)
    image = rng_.standard_normal((1, 1, 24, 24)).astype(np.float32)
    workloads.draw_rate_network(model.ratenet, rng_, [image])
    return model, image


def test_logit_check_passes_on_real_model(small_model):
    model, image = small_model
    assert checks.logits_vs_f64(model, image, crop=16).ok


def test_logit_check_fails_on_float32_only_error(small_model, monkeypatch):
    model, image = small_model

    def sloppy_f32(x, layer, rates, plan=None, return_cache=False):
        out = ORIG["asc_conv_forward"](x, layer, rates, plan=plan, return_cache=return_cache)
        if x.dtype != np.float32:
            return out
        if return_cache:
            return out[0] * np.float32(1.001), out[1]
        return out * np.float32(1.001)

    monkeypatch.setattr(convops, "asc_conv_forward", sloppy_f32)
    assert not checks.logits_vs_f64(model, image, crop=16).ok


def test_learning_check_fails_when_loss_does_not_drop():
    assert not checks.learning([0.7] * 40).ok
    assert not checks.learning([0.7] * 20 + [float("nan")] * 20).ok
