import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascnet import convops
from ascnet.convops import (
    ConvLayer,
    asc_conv_backward,
    asc_conv_forward,
    bilinear_kernel,
    conv_classic_backward,
    conv_classic_forward,
    conv_dilated_backward,
    conv_dilated_forward,
    oracle_asc_forward,
    sample_bilinear,
)

RNG = np.random.default_rng


def make_layer(rng, out_c, in_c, kind, rate=1):
    return ConvLayer(rng.standard_normal((out_c, in_c, 3, 3)),
                     rng.standard_normal(out_c), kind, rate)


# (out channels of a 2-channel layer, return_cache): the mixed form (no
# widening) and the sample-first form (widening), each with and without
# a cache.
FORM_CASES = ((2, False), (1, False), (3, False), (2, True), (3, True))


def _y(out):
    """A forward's output, with or without the cache it returned."""
    return out[0] if isinstance(out, tuple) else out


def naive_conv(x, layer, rate):
    """Six-nested-loop oracle for integer-dilated convolution, zero padded."""
    _, c, h, w = x.shape
    o = layer.out_channels
    y = np.zeros((1, o, h, w))
    for oc in range(o):
        for py in range(h):
            for px in range(w):
                acc = layer.bias[oc]
                for ic in range(c):
                    for ky in range(3):
                        for kx in range(3):
                            sy = py + rate * (ky - 1)
                            sx = px + rate * (kx - 1)
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += layer.weights[oc, ic, ky, kx] * x[0, ic, sy, sx]
                y[0, oc, py, px] = acc
    return y


class TestBilinearKernel:
    def test_zero_distance(self):
        assert bilinear_kernel((1, 1), (1.0, 1.0)) == 1.0

    def test_direct_evaluation(self):
        assert bilinear_kernel((1, 1), (1.3, 1.6)) == pytest.approx(0.7 * 0.4)

    def test_axis_distance_beyond_one(self):
        assert bilinear_kernel((0, 0), (1.5, 0.0)) == 0.0

    def test_partition_of_unity(self):
        rng = RNG(0)
        for _ in range(200):
            p = (rng.uniform(1, 5), rng.uniform(1, 5))
            y0, x0 = int(np.floor(p[0])), int(np.floor(p[1]))
            total = sum(
                bilinear_kernel((qy, qx), p)
                for qy in (y0, y0 + 1) for qx in (x0, x0 + 1)
            )
            assert abs(total - 1.0) < 1e-12


class TestSampleBilinear:
    def test_center_of_2x2_is_mean(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        assert sample_bilinear(x, (0.5, 0.5), 0) == pytest.approx(1.5)

    def test_grid_point_is_exact(self):
        rng = RNG(1)
        x = rng.standard_normal((2, 4, 4))
        assert sample_bilinear(x, (2.0, 3.0), 1) == x[1, 2, 3]

    def test_fully_out_of_bounds_is_zero(self):
        x = np.ones((1, 4, 4))
        assert sample_bilinear(x, (-2.0, 0.0), 0) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = RNG(2)
        x = rng.standard_normal((1, 4, 4))
        p = (1.25, 2.75)
        expected = sum(
            bilinear_kernel((qy, qx), p) * x[0, qy, qx]
            for qy in range(4) for qx in range(4)
        )
        assert sample_bilinear(x, p, 0) == pytest.approx(expected, rel=1e-14)

    def test_channel_out_of_range(self):
        with pytest.raises(ValueError, match="channel"):
            sample_bilinear(np.zeros((2, 3, 3)), (1.0, 1.0), 2)

    @pytest.mark.parametrize("shape", [(1, 2, 3, 3), (3, 3)])
    def test_map_that_is_not_3d_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected \(C,H,W\) input"):
            sample_bilinear(np.zeros(shape), (1.0, 1.0), 0)


class TestConvLayer:
    @pytest.mark.parametrize("kernel,out_c,kind,message", [
        ((2, 1, 5, 5), 2, convops.CLASSIC, r"kernel must be \(out,in,3,3\)"),
        ((2, 1, 3), 2, convops.CLASSIC, r"kernel must be \(out,in,3,3\)"),
        ((2, 1, 3, 3), 3, convops.CLASSIC, r"bias shape \(3,\) does not match 2"),
        ((2, 1, 3, 3), 2, "deformable", "unknown layer kind 'deformable'"),
    ], ids=["5x5-kernel", "3d-kernel", "bias", "kind"])
    def test_rejects_malformed_parameters(self, kernel, out_c, kind, message):
        with pytest.raises(ValueError, match=message):
            ConvLayer(np.zeros(kernel), np.zeros(out_c), kind)


class TestClassicConv:
    def test_identity_kernel(self):
        rng = RNG(0)
        x = rng.standard_normal((1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        layer = ConvLayer(w, np.zeros(1), convops.CLASSIC)
        assert np.allclose(conv_classic_forward(x, layer), x)

    def test_all_ones_kernel_interior(self):
        x = np.full((1, 1, 5, 5), 3.0)
        layer = ConvLayer(np.ones((1, 1, 3, 3)), np.zeros(1), convops.CLASSIC)
        y = conv_classic_forward(x, layer)
        assert y[0, 0, 2, 2] == pytest.approx(27.0)

    def test_matches_naive_loop_oracle(self):
        rng = RNG(5)
        x = rng.standard_normal((1, 2, 5, 5))
        layer = make_layer(rng, 3, 2, convops.CLASSIC)
        assert np.allclose(conv_classic_forward(x, layer),
                           naive_conv(x, layer, 1), atol=1e-12)

    def test_channel_mismatch(self):
        rng = RNG(0)
        layer = make_layer(rng, 2, 3, convops.CLASSIC)
        with pytest.raises(ValueError, match="channels"):
            conv_classic_forward(rng.standard_normal((1, 2, 4, 4)), layer)

    def test_shape_preserved(self):
        rng = RNG(0)
        layer = make_layer(rng, 4, 2, convops.CLASSIC)
        y = conv_classic_forward(rng.standard_normal((1, 2, 9, 7)), layer)
        assert y.shape == (1, 4, 9, 7)


class TestDilatedConv:
    def test_rate_one_equals_classic(self):
        rng = RNG(3)
        x = rng.standard_normal((1, 2, 6, 6))
        # Both forms, each reached every way it can be.
        for out_c, cached in FORM_CASES:
            d = make_layer(rng, out_c, 2, convops.DILATED, rate=1)
            c = ConvLayer(d.weights, d.bias, convops.CLASSIC)
            assert np.array_equal(_y(conv_dilated_forward(x, d, cached)),
                                  _y(conv_classic_forward(x, c, cached)))

    def test_center_only_kernel_unaffected_by_rate(self):
        rng = RNG(4)
        x = rng.standard_normal((1, 1, 7, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        layer = ConvLayer(w, np.zeros(1), convops.DILATED, rate=2)
        assert np.allclose(conv_dilated_forward(x, layer), x)

    def test_matches_naive_loop_oracle(self):
        rng = RNG(6)
        x = rng.standard_normal((1, 1, 7, 7))
        layer = make_layer(rng, 1, 1, convops.DILATED, rate=2)
        assert np.allclose(conv_dilated_forward(x, layer),
                           naive_conv(x, layer, 2), atol=1e-12)

    def test_rate_below_one_rejected(self):
        rng = RNG(0)
        with pytest.raises(ValueError, match="rate"):
            make_layer(rng, 1, 1, convops.DILATED, rate=0)

    @pytest.mark.parametrize("rate", [2.5, np.float64(2.0), True])
    def test_rate_that_is_not_an_integer_rejected(self, rate):
        with pytest.raises(ValueError, match=re.escape(f"got {rate!r}")):
            make_layer(RNG(0), 1, 1, convops.DILATED, rate=rate)

    @pytest.mark.parametrize("kind", [convops.CLASSIC, convops.ADAPTIVE])
    @pytest.mark.parametrize("rate", [4, np.int64(2)])
    def test_rate_other_than_one_rejected_unless_dilated(self, kind, rate):
        message = f"a {kind} layer has dilation rate 1, got {rate!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_layer(RNG(0), 1, 1, kind, rate=rate)

    def test_numpy_integer_rate_accepted(self):
        rng = RNG(7)
        x = rng.standard_normal((1, 2, 9, 9))
        layer = make_layer(rng, 2, 2, convops.DILATED, rate=np.int64(4))
        plain = ConvLayer(layer.weights, layer.bias, convops.DILATED, rate=4)
        assert np.array_equal(conv_dilated_forward(x, layer),
                              conv_dilated_forward(x, plain))


class TestAscForward:
    def test_rate_one_bit_identical_to_classic(self):
        rng = RNG(7)
        x = rng.standard_normal((1, 2, 6, 6))
        rates = np.ones((1, 1, 6, 6))
        for out_c, cached in FORM_CASES:
            a = make_layer(rng, out_c, 2, convops.ADAPTIVE)
            c = ConvLayer(a.weights, a.bias, convops.CLASSIC)
            assert np.array_equal(_y(asc_conv_forward(x, a, rates, return_cache=cached)),
                                  _y(conv_classic_forward(x, c, cached)))

    def test_integer_rate_matches_dilated(self):
        rng = RNG(8)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        a = make_layer(rng, 2, 1, convops.ADAPTIVE)
        a = ConvLayer(a.weights.astype(np.float32), a.bias.astype(np.float32),
                      convops.ADAPTIVE)
        d = ConvLayer(a.weights, a.bias, convops.DILATED, rate=2)
        rates = np.full((1, 1, 8, 8), 2.0, dtype=np.float32)
        assert np.allclose(asc_conv_forward(x, a, rates),
                           conv_dilated_forward(x, d), atol=1e-6)

    def test_zero_rate_collapses_to_center(self):
        rng = RNG(9)
        x = rng.standard_normal((1, 1, 5, 5))
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        rates = np.zeros((1, 1, 5, 5))
        y = asc_conv_forward(x, a, rates)
        expected = a.weights.sum() * x + a.bias[0]
        assert np.allclose(y, expected, atol=1e-12)

    def test_single_pixel_fractional_rate_matches_oracle(self):
        rng = RNG(10)
        x = rng.standard_normal((1, 1, 5, 5))
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        rates = np.ones((1, 1, 5, 5))
        rates[0, 0, 2, 2] = 1.5
        assert np.allclose(asc_conv_forward(x, a, rates),
                           oracle_asc_forward(x, a, rates), atol=1e-12)

    def test_rate_dim_mismatch(self):
        rng = RNG(0)
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        with pytest.raises(ValueError, match="rate field"):
            asc_conv_forward(rng.standard_normal((1, 1, 5, 5)), a,
                             np.ones((1, 1, 4, 4)))

    @pytest.mark.parametrize("return_cache", [False, True])
    def test_plan_for_other_dims_rejected(self, return_cache):
        rng = RNG(0)
        a = make_layer(rng, 2, 2, convops.ADAPTIVE)
        plan = convops.build_sampling_plan(np.ones((1, 1, 5, 5)), 5, 5)
        with pytest.raises(ValueError, match="sampling plan dims do not match"):
            asc_conv_forward(rng.standard_normal((1, 2, 5, 6)), a, None, plan,
                             return_cache)

    def test_negative_rates_rejected(self):
        rng = RNG(0)
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        with pytest.raises(ValueError, match="negative"):
            asc_conv_forward(rng.standard_normal((1, 1, 5, 5)), a,
                             np.full((1, 1, 5, 5), -0.5))

    def test_linearity(self):
        rng = RNG(11)
        x1 = rng.standard_normal((1, 2, 6, 6))
        x2 = rng.standard_normal((1, 2, 6, 6))
        a = make_layer(rng, 2, 2, convops.ADAPTIVE)
        a = ConvLayer(a.weights, np.zeros(2), convops.ADAPTIVE)
        rates = np.abs(rng.uniform(0.2, 2.5, (1, 1, 6, 6)))
        alpha, beta = 0.7, -1.3
        lhs = asc_conv_forward(alpha * x1 + beta * x2, a, rates)
        rhs = alpha * asc_conv_forward(x1, a, rates) + beta * asc_conv_forward(x2, a, rates)
        assert np.allclose(lhs, rhs, atol=1e-5)

    def test_continuity_in_rate(self):
        # Output as a function of a single rate value is continuous,
        # including across integer rates.
        rng = RNG(12)
        x = rng.standard_normal((1, 1, 6, 6))
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        for r in [0.5, 1.0, 1.37, 2.0]:
            rates = np.full((1, 1, 6, 6), r)
            y0 = asc_conv_forward(x, a, rates)
            y1 = asc_conv_forward(x, a, rates + 1e-6)
            assert np.all(np.abs(y1 - y0) < 1e-4 * (1 + np.abs(y0)))

    def test_oracle_sweep(self):
        worst = 0.0
        for seed in range(100):
            rng = RNG(seed)
            x = rng.standard_normal((1, 1, 4, 4))
            a = make_layer(rng, 1, 1, convops.ADAPTIVE)
            rates = rng.uniform(0.0, 3.0, (1, 1, 4, 4))
            diff = np.abs(asc_conv_forward(x, a, rates)
                          - oracle_asc_forward(x, a, rates)).max()
            worst = max(worst, diff)
        assert worst < 1e-10


def fd_grad(loss, arr, h=1e-6):
    g = np.zeros_like(arr)
    flat, gf = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss()
        flat[i] = orig - h
        fm = loss()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8))


class TestIntConvBackward:
    @pytest.mark.parametrize("kind,rate", [(convops.CLASSIC, 1), (convops.DILATED, 2)])
    def test_zero_grad_y(self, kind, rate):
        rng = RNG(0)
        x = rng.standard_normal((1, 2, 5, 5))
        layer = make_layer(rng, 2, 2, kind, rate)
        bwd = conv_classic_backward if kind == convops.CLASSIC else conv_dilated_backward
        gx, gw, gb = bwd(x, layer, np.zeros((1, 2, 5, 5)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_passes_grad(self):
        rng = RNG(1)
        x = rng.standard_normal((1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        layer = ConvLayer(w, np.zeros(1), convops.CLASSIC)
        g = rng.standard_normal((1, 1, 5, 5))
        gx, _, _ = conv_classic_backward(x, layer, g)
        assert np.allclose(gx, g, atol=1e-12)

    # On the 6x6 map rate 4 straddles the edge, and rate 7 puts every
    # non-centre tap off the map.
    @pytest.mark.parametrize("kind,rate", [(convops.CLASSIC, 1), (convops.DILATED, 2),
                                           (convops.DILATED, 4), (convops.DILATED, 7)])
    def test_matches_finite_differences(self, kind, rate):
        rng = RNG(2)
        x = rng.standard_normal((1, 2, 6, 6))
        layer = make_layer(rng, 3, 2, kind, rate)
        if kind == convops.CLASSIC:
            fwd = lambda: conv_classic_forward(x, layer)
            bwd = conv_classic_backward
        else:
            fwd = lambda: conv_dilated_forward(x, layer)
            bwd = conv_dilated_backward
        g = rng.standard_normal((1, 3, 6, 6))
        loss = lambda: float((fwd() * g).sum())
        gx, gw, gb = bwd(x, layer, g)
        h = 1e-4  # loss is linear in every argument, so only rounding matters
        assert rel_err(gx, fd_grad(loss, x, h)) < 1e-6
        assert rel_err(gw, fd_grad(loss, layer.weights, h)) < 1e-6
        assert rel_err(gb, fd_grad(loss, layer.bias, h)) < 1e-6

    # Non-square maps of 1-12 px a side and rates up to 14, so some taps
    # shift by a side or more and every row edge is crossed.
    @settings(max_examples=100)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 4),
           out_c=st.integers(1, 3), rate=st.integers(1, 14),
           seed=st.integers(0, 2**32 - 1))
    def test_dilated_backward_at_any_shape(self, h, w, c, out_c, rate, seed):
        rng = RNG(seed)
        x = rng.standard_normal((1, c, h, w))
        layer = make_layer(rng, out_c, c, convops.DILATED, rate)
        g = rng.standard_normal((1, out_c, h, w))
        y = conv_dilated_forward(x, layer)
        gx, gw, gb = conv_dilated_backward(x, layer, g)
        y -= layer.bias[:, None, None]
        lhs = float(np.vdot(y, g))
        scale = float(np.abs(y * g).sum()) + 1e-300
        assert abs(lhs - float(np.vdot(x, gx))) <= 1e-12 * scale
        assert abs(lhs - float(np.vdot(layer.weights, gw))) <= 1e-12 * scale
        # The adaptive operator at the same constant integer rate.
        a = ConvLayer(layer.weights, layer.bias, convops.ADAPTIVE)
        agx, agw, agb, _ = asc_conv_backward(x, a, np.full((1, 1, h, w), float(rate)), g)
        assert gw.tobytes() == agw.tobytes() and gb.tobytes() == agb.tobytes()
        assert np.allclose(gx, agx, rtol=0, atol=1e-12)

    # The models' layer shapes on a 64x64 map in float32, where BLAS takes
    # other kernels than on the small float64 maps above.
    @pytest.mark.parametrize("c,out_c", [(1, 8), (8, 8), (8, 2)])
    @pytest.mark.parametrize("rate", [1, 2, 16])
    def test_dilated_backward_bit_for_bit_at_model_shapes(self, c, out_c, rate):
        rng = RNG(4)
        x = rng.standard_normal((1, c, 64, 64)).astype(np.float32)
        w = rng.standard_normal((out_c, c, 3, 3)).astype(np.float32)
        b = rng.standard_normal(out_c).astype(np.float32)
        g = rng.standard_normal((1, out_c, 64, 64)).astype(np.float32)
        gx, gw, gb = conv_dilated_backward(x, ConvLayer(w, b, convops.DILATED, rate), g)
        rates = np.full((1, 1, 64, 64), rate, dtype=np.float32)
        agx, agw, agb, _ = asc_conv_backward(x, ConvLayer(w, b, convops.ADAPTIVE), rates, g)
        assert gw.tobytes() == agw.tobytes() and gb.tobytes() == agb.tobytes()
        assert agx.dtype == gx.dtype and np.allclose(gx, agx, rtol=1e-6, atol=1e-6)

    def test_dilated_rate_one_equals_classic_backward(self):
        rng = RNG(3)
        x = rng.standard_normal((1, 2, 5, 5))
        d = make_layer(rng, 2, 2, convops.DILATED, rate=1)
        c = ConvLayer(d.weights, d.bias, convops.CLASSIC)
        g = rng.standard_normal((1, 2, 5, 5))
        for a, b in zip(conv_dilated_backward(x, d, g),
                        conv_classic_backward(x, c, g)):
            assert np.array_equal(a, b)


class TestAscBackward:
    def test_constant_input_zero_rate_grad_interior(self):
        # Locally constant input: moving the sample points changes nothing.
        rng = RNG(0)
        x = np.full((1, 1, 7, 7), 2.5)
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        rates = np.full((1, 1, 7, 7), 1.2)
        g = rng.standard_normal((1, 1, 7, 7))
        _, _, _, gr = asc_conv_backward(x, a, rates, g)
        # Interior pixels sample fully in-bounds constant values.
        assert np.allclose(gr[0, 0, 3:4, 3:4], 0.0, atol=1e-12)

    def test_center_tap_weight_grad_independent_of_rates(self):
        rng = RNG(1)
        x = rng.standard_normal((1, 1, 6, 6))
        a = make_layer(rng, 1, 1, convops.ADAPTIVE)
        g = rng.standard_normal((1, 1, 6, 6))
        _, gw1, _, _ = asc_conv_backward(x, a, np.full((1, 1, 6, 6), 0.7), g)
        _, gw2, _, _ = asc_conv_backward(x, a, np.full((1, 1, 6, 6), 1.9), g)
        assert gw1[0, 0, 1, 1] == pytest.approx(gw2[0, 0, 1, 1], rel=1e-12)

    def test_all_gradients_match_finite_differences(self):
        rng = RNG(2)
        # A mixed 2->2 layer, then a widening (sample-first) 2->3 and a
        # narrowing (mixed) 3->2 one.
        for c, o in ((2, 2), (2, 3), (3, 2)):
            x = rng.standard_normal((1, c, 6, 6))
            a = make_layer(rng, o, c, convops.ADAPTIVE)
            rates = rng.uniform(0.3, 2.3, (1, 1, 6, 6))
            rates = np.where(np.abs(rates - np.round(rates)) < 1e-3,
                             rates + 2e-3, rates)
            g = rng.standard_normal((1, o, 6, 6))
            loss = lambda: float((asc_conv_forward(x, a, rates) * g).sum())
            gx, gw, gb, gr = asc_conv_backward(x, a, rates, g)
            h = 1e-4
            assert rel_err(gx, fd_grad(loss, x, h)) < 1e-4
            assert rel_err(gw, fd_grad(loss, a.weights, h)) < 1e-4
            assert rel_err(gb, fd_grad(loss, a.bias, h)) < 1e-4
            assert rel_err(gr, fd_grad(loss, rates, h)) < 1e-4

    def test_cache_matches_recompute(self):
        rng = RNG(3)
        x = rng.standard_normal((1, 2, 5, 5))
        a = make_layer(rng, 2, 2, convops.ADAPTIVE)
        rates = rng.uniform(0.2, 2.2, (1, 1, 5, 5))
        g = rng.standard_normal((1, 2, 5, 5))
        _, cache = asc_conv_forward(x, a, rates, return_cache=True)
        with_cache = asc_conv_backward(x, a, rates, g, cache=cache)
        without = asc_conv_backward(x, a, rates, g)
        for u, v in zip(with_cache, without):
            assert np.array_equal(u, v)


class TestSamplingOperator:
    """The sparse sampler S (forward), its transpose (input gradient) and
    D (rate gradient), in float64 unless stated otherwise."""

    @staticmethod
    def _setup(seed, shape=(1, 3, 7, 9), out_c=2):
        rng = RNG(seed)
        x = rng.standard_normal(shape)
        a = make_layer(rng, out_c, shape[1], convops.ADAPTIVE)
        a = ConvLayer(a.weights, np.zeros(out_c), convops.ADAPTIVE)
        rates = rng.uniform(0.0, 4.0, (1, 1) + shape[2:])
        rates[0, 0, 0, :3] = (0.0, 1.0, 20.0)  # zero, integer, off-image
        return rng, x, a, rates

    def test_adjoint_identity(self):
        rng, x, a, rates = self._setup(20)
        y = asc_conv_forward(x, a, rates)
        g = rng.standard_normal(y.shape)
        gx, gw, _, _ = asc_conv_backward(x, a, rates, g)
        lhs = float(np.vdot(y, g))
        scale = float(np.abs(y * g).sum())
        # <A x, g> = <x, A^T g>, and the output is linear in the weights too.
        assert abs(lhs - float(np.vdot(x, gx))) <= 1e-12 * scale
        assert abs(lhs - float(np.vdot(a.weights, gw))) <= 1e-12 * scale

    # A 2->2 layer mixes first; a widening 1->3 layer reads S, and with a
    # cache D, one channel at a time.
    @pytest.mark.parametrize("field", ["zero", "integer", "offimage"])
    def test_oracle_at_degenerate_rates(self, field):
        rng = RNG(21)
        for c, o in ((2, 2), (1, 3)):
            x = rng.standard_normal((1, c, 5, 5))
            a = make_layer(rng, o, c, convops.ADAPTIVE)
            if field == "zero":
                rates = np.zeros((1, 1, 5, 5))
            elif field == "integer":
                rates = rng.integers(0, 4, (1, 1, 5, 5)).astype(np.float64)
            else:
                rates = np.full((1, 1, 5, 5), 7.0)  # every non-centre tap off-image
            oracle = oracle_asc_forward(x, a, rates)
            y, cache = asc_conv_forward(x, a, rates, return_cache=True)
            assert np.allclose(y, oracle, atol=1e-12), (c, o)
            assert np.allclose(asc_conv_forward(x, a, rates), oracle, atol=1e-12), (c, o)
            if field != "offimage":
                continue
            centre = np.einsum("oc,chw->ohw", a.weights[:, :, 1, 1], x[0])
            assert np.allclose(y[0], centre + a.bias[:, None, None], atol=1e-12)
            g = rng.standard_normal(y.shape)
            for kept in (cache, None):
                gx, _, _, gr = asc_conv_backward(x, a, rates, g, cache=kept)
                assert np.array_equal(gr, np.zeros_like(gr)), (c, o)
                assert np.allclose(gx[0], np.einsum("oc,ohw->chw",
                                                    a.weights[:, :, 1, 1], g[0]),
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_is_byte_deterministic(self, dtype):
        rng, x, a, rates = self._setup(22, shape=(1, 8, 16, 16), out_c=8)
        x, rates = x.astype(dtype), rates.astype(dtype)
        a = ConvLayer(a.weights.astype(dtype), a.bias.astype(dtype),
                      convops.ADAPTIVE)
        g = rng.standard_normal((1, 8, 16, 16)).astype(dtype)
        first = asc_conv_backward(x, a, rates, g)
        second = asc_conv_backward(x.copy(), a, rates.copy(), g.copy())
        assert first[0].tobytes() == second[0].tobytes()
        assert first[3].tobytes() == second[3].tobytes()

    def test_plan_views_alias_the_operators(self):
        _, _, _, rates = self._setup(23)
        plan = convops.build_sampling_plan(rates, 7, 9)
        n = 7 * 9
        assert plan.S.shape == plan.D.shape == (9 * n, n)
        for arr in (plan.idx, plan.weight, plan.dweight_drate):
            assert arr.shape == (9, 4, n)
        plan.weight[:, 3] = 0.0
        assert np.count_nonzero(plan.S.data.reshape(9, n, 4)[..., 3]) == 0


class TestTapBlocks:
    """A widening layer's forward reads S, and with a cache D, one input
    channel at a time, into (C, 9, N) tap columns."""

    @staticmethod
    def _setup(dtype, rate_dtype=None, c=32, size=64, out_c=None):
        rng = RNG(30)
        x = rng.standard_normal((1, c, size, size)).astype(dtype)
        a = make_layer(rng, out_c or c, c, convops.ADAPTIVE)
        a = ConvLayer(a.weights.astype(dtype), a.bias.astype(dtype),
                      convops.ADAPTIVE)
        rates = rng.uniform(0.0, 4.0, (1, 1, size, size))
        return x, a, rates.astype(rate_dtype or dtype)

    # 32 -> 33 channels: the narrowest layer on 32 that still widens, so
    # samples first. The (N, C) input, the output and its bias sum fit
    # beside the (C, 9, N) columns in half their size; a cached forward
    # reads D's columns into the same buffer before it forms P.
    def test_forward_peak_memory_stays_near_the_tap_columns(self):
        x, a, rates = self._setup(np.float32, out_c=33)
        plan = convops.build_sampling_plan(rates, 64, 64)
        for cached in (False, True):
            asc_conv_forward(x, a, rates, plan=plan, return_cache=cached)
            tracemalloc.start()
            try:
                asc_conv_forward(x, a, rates, plan=plan, return_cache=cached)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # A whole-image (9N, C) product next to the (C, 9, N) columns
            # would take the peak past 2x.
            assert peak < 1.5 * (32 * 9 * 64 * 64 * 4), cached

    @pytest.mark.parametrize("rate", [1, 16])
    def test_integer_backward_peak_memory_stays_near_one_column_array(self, rate):
        rng = RNG(31)
        x = rng.standard_normal((1, 8, 64, 64)).astype(np.float32)
        layer = make_layer(rng, 8, 8, convops.DILATED, rate)
        layer = ConvLayer(layer.weights.astype(np.float32),
                          layer.bias.astype(np.float32), convops.DILATED, rate)
        g = rng.standard_normal((1, 8, 64, 64)).astype(np.float32)
        conv_dilated_backward(x, layer, g)
        tracemalloc.start()
        try:
            conv_dilated_backward(x, layer, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two (9, O, H*W) tap-gradient arrays alive at once would take the
        # peak past 2x.
        assert peak < 1.5 * (8 * 9 * 64 * 64 * 4)

    # One channel is the width every widening layer of the models reads.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_whole_matrix_product_bit_for_bit(self, dtype):
        for c in (1, 8):
            x, a, rates = self._setup(dtype, c=c, size=24, out_c=16)
            plan = convops.build_sampling_plan(rates, 24, 24)
            n = 24 * 24
            x2 = x[0].reshape(c, n)
            ref_cols = np.ascontiguousarray(
                (plan.S @ np.ascontiguousarray(x2.T)).reshape(9, n, c).transpose(2, 0, 1))
            ref = (a.weights.reshape(16, 9 * c) @ ref_cols.reshape(9 * c, n)
                   + a.bias[:, None]).reshape(1, 16, 24, 24)
            assert convops._sample(x2, plan.S).tobytes() == ref_cols.tobytes(), c
            for cached in (False, True):
                y = _y(asc_conv_forward(x, a, rates, plan=plan, return_cache=cached))
                assert y.dtype == dtype and y.tobytes() == ref.tobytes(), (c, cached)

    def test_float32_input_with_float64_rates_gives_float64(self):
        x, a, rates = self._setup(np.float32, np.float64, c=4, size=12)
        y = asc_conv_forward(x, a, rates)
        assert y.dtype == np.float64
        ref = asc_conv_forward(x.astype(np.float64), a, rates)
        assert np.allclose(y, ref, rtol=1e-6, atol=1e-6)


class TestMixedForm:
    """A layer that does not widen mixes its channels first, with or
    without a cache. In float64 it matches the sample-first form,
    W·cols + b over the gathered tap columns, to 1e-12 of the output's
    largest value."""

    SHAPES = [(1, 1), (32, 2), (3, 3), (4, 2)]   # (in, out) channels

    @staticmethod
    def _compare(forward, x, layer, cols):
        sampled = convops._contract(cols, layer).reshape((1, -1) + x.shape[2:])
        for cached in (False, True):
            mixed = _y(forward(x, layer, cached))
            assert mixed.shape == sampled.shape and mixed.dtype == sampled.dtype
            scale = np.abs(sampled).max()
            assert np.abs(mixed - sampled).max() <= 1e-12 * scale

    @pytest.mark.parametrize("c,o", SHAPES)
    def test_classic_matches_sample_first(self, c, o):
        rng = RNG(60)
        x = rng.standard_normal((1, c, 7, 9))
        self._compare(conv_classic_forward, x, make_layer(rng, o, c, convops.CLASSIC),
                      convops._integer_cols(x[0], 1))

    # Rates past the 7x9 map's sides shift taps by a side or more.
    @pytest.mark.parametrize("c,o", SHAPES)
    @pytest.mark.parametrize("rate", [2, 3, 6, 7, 8, 9, 12])
    def test_dilated_matches_sample_first(self, c, o, rate):
        rng = RNG(61)
        x = rng.standard_normal((1, c, 7, 9))
        self._compare(conv_dilated_forward, x,
                      make_layer(rng, o, c, convops.DILATED, rate),
                      convops._integer_cols(x[0], rate))

    @pytest.mark.parametrize("c,o", SHAPES)
    @pytest.mark.parametrize("field", ["zero", "integer", "fractional", "offimage"])
    def test_adaptive_matches_sample_first(self, c, o, field):
        rng = RNG(62)
        x = rng.standard_normal((1, c, 7, 9))
        rates = {
            "zero": np.zeros((1, 1, 7, 9)),
            "integer": rng.integers(0, 6, (1, 1, 7, 9)).astype(np.float64),
            "fractional": rng.uniform(0.0, 4.0, (1, 1, 7, 9)),
            "offimage": rng.uniform(9.0, 20.0, (1, 1, 7, 9)),
        }[field]
        plan = convops.build_sampling_plan(rates, 7, 9)
        self._compare(lambda x_, l_, cached: asc_conv_forward(
            x_, l_, None, plan=plan, return_cache=cached),
            x, make_layer(rng, o, c, convops.ADAPTIVE),
            convops._sample(x[0].reshape(c, -1), plan.S))

    def test_rows_regroup_s_and_are_built_once(self):
        rates = RNG(63).uniform(0.0, 6.0, (1, 1, 5, 6))
        rates[0, 0, 0] = (0.0, 1.0, 2.0, 9.0, 0.5, 7.0)   # zero, integer, off-image
        plan = convops.build_sampling_plan(rates, 5, 6)
        n = 30
        dense = plan.S.toarray().reshape(9, n, n)
        rows = plan.rows
        assert rows.shape == (n, 9 * n)
        assert np.array_equal(rows.toarray(), dense.transpose(1, 0, 2).reshape(n, 9 * n))
        assert np.array_equal(rows.T.toarray(), dense.transpose(1, 0, 2).reshape(n, 9 * n).T)
        drows = plan.Drows
        ddense = plan.D.toarray().reshape(9, n, n)
        assert np.array_equal(drows.toarray(), ddense.transpose(1, 0, 2).reshape(n, 9 * n))
        assert drows.nnz == np.count_nonzero(plan.D.data) < plan.D.nnz
        rng = RNG(64)
        x = rng.standard_normal((1, 3, 5, 6))
        for o in (4, 3, 2):
            layer = make_layer(rng, o, 3, convops.ADAPTIVE)
            y, cache = asc_conv_forward(x, layer, None, plan=plan, return_cache=True)
            asc_conv_forward(x, layer, None, plan=plan)
            asc_conv_backward(x, layer, None, rng.standard_normal(y.shape), cache=cache)
        assert plan.rows is rows and plan.Drows is drows

    def test_rows_hold_only_the_nonzero_corners(self):
        rates = RNG(66).uniform(0.0, 4.0, (1, 1, 5, 6))
        # Zero, integer, fractional and off-image pixels.
        rates[0, 0, 0] = (0.0, 1.0, 2.0, 9.0, 0.5, 7.0)
        plan = convops.build_sampling_plan(rates, 5, 6)
        rows = plan.rows
        assert rows.nnz == np.count_nonzero(rows.data) == np.count_nonzero(plan.S.data)
        assert rows.nnz < plan.S.nnz

    @pytest.mark.parametrize("kind", [convops.ADAPTIVE, convops.CLASSIC, convops.DILATED])
    @pytest.mark.parametrize("c,o", [(32, 32), (32, 2)])
    def test_forward_peak_memory_stays_near_the_tap_products(self, kind, c, o):
        rng = RNG(65)
        x = rng.standard_normal((1, c, 64, 64)).astype(np.float32)
        w = rng.standard_normal((o, c, 3, 3)).astype(np.float32)
        layer = ConvLayer(w, np.zeros(o, np.float32), kind, 16 if kind == convops.DILATED else 1)
        plan = convops.build_sampling_plan(
            rng.uniform(0.0, 4.0, (1, 1, 64, 64)).astype(np.float32), 64, 64)
        forward = {convops.ADAPTIVE: lambda: asc_conv_forward(x, layer, None, plan=plan),
                   convops.CLASSIC: lambda: conv_classic_forward(x, layer),
                   convops.DILATED: lambda: conv_dilated_forward(x, layer)}[kind]
        forward()   # builds plan.rows
        tracemalloc.start()
        try:
            forward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The (9, N, O) products and the (N, O) sum. Sample-first tap
        # columns, (C, 9, N), would take it to 16x at 32->2.
        assert peak < 1.5 * (9 * 64 * 64 * o * 4)


@st.composite
def rate_field_cases(draw, rates, dtypes=(np.float64,)):
    """A random (1, C, H, W) input of 1-8 px a side and 1-3 channels, an
    adaptive layer with zero bias, and a (1, 1, H, W) field drawn from
    `rates`, all of one of `dtypes`; inputs and weights come from a drawn
    seed."""
    h, w, c, out_c = (draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                      draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    dtype = draw(st.sampled_from(dtypes))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((1, c, h, w)).astype(dtype)
    layer = ConvLayer(rng.standard_normal((out_c, c, 3, 3)).astype(dtype),
                      np.zeros(out_c, dtype), convops.ADAPTIVE)
    field = draw(hnp.arrays(np.float64, (1, 1, h, w), elements=rates))
    return rng, x, layer, field.astype(dtype)


# Zero, integer and fractional rates, and rates of 9 or more, which put
# every tap but the centre off a map of at most 8 px.
_ANY_RATES = st.one_of(st.just(0.0), st.integers(1, 11).map(float),
                       st.floats(0.0, 12.0))


class TestRandomRateFields:
    """Properties of the adaptive operator over random small maps and rate
    fields; float64 unless the property holds bit for bit."""

    @settings(max_examples=40)
    @given(case=rate_field_cases(_ANY_RATES))
    def test_adjoint_identity(self, case):
        rng, x, a, rates = case
        y = asc_conv_forward(x, a, rates)
        g = rng.standard_normal(y.shape)
        gx, gw, _, _ = asc_conv_backward(x, a, rates, g)
        lhs = float(np.vdot(y, g))
        scale = float(np.abs(y * g).sum()) + 1e-300
        assert abs(lhs - float(np.vdot(x, gx))) <= 1e-12 * scale
        assert abs(lhs - float(np.vdot(a.weights, gw))) <= 1e-12 * scale

    @settings(max_examples=25)
    @given(case=rate_field_cases(_ANY_RATES))
    def test_matches_oracle(self, case):
        _, x, a, rates = case
        assert np.allclose(asc_conv_forward(x, a, rates),
                           oracle_asc_forward(x, a, rates), rtol=1e-10, atol=1e-10)

    # Either form: without a cache, a layer that does not widen mixes first.
    @settings(max_examples=150)
    @given(case=rate_field_cases(st.integers(1, 11).map(float),
                                 (np.float32, np.float64)),
           cached=st.booleans())
    def test_integer_rates_are_dilated_convs_bit_for_bit(self, case, cached):
        _, x, a, rates = case
        y = _y(asc_conv_forward(x, a, rates, return_cache=cached))
        for k in np.unique(rates):
            d = ConvLayer(a.weights, a.bias, convops.DILATED, rate=int(k))
            at_k = rates[0, 0] == k
            want = _y(conv_dilated_forward(x, d, cached))
            assert y.dtype == want.dtype
            assert y[0][:, at_k].tobytes() == want[0][:, at_k].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plan_build_peak_memory_stays_near_the_kept_arrays(self, dtype):
        rates = RNG(50).uniform(0.0, 4.0, (1, 1, 64, 64)).astype(dtype)
        convops.build_sampling_plan(rates, 64, 64)
        tracemalloc.start()
        try:
            plan = convops.build_sampling_plan(rates, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # D shares S's index arrays: the plan keeps S's three arrays and
        # D's data.
        assert np.shares_memory(plan.D.indices, plan.S.indices)
        kept = sum(a.nbytes for a in (plan.S.data, plan.S.indices,
                                      plan.S.indptr, plan.D.data))
        # Per-tap (9, N) temporaries, rows repeating each axis's three
        # offsets, took the peak past 2x.
        assert peak < 2 * kept


class TestDispatch:
    """`conv_forward`/`conv_backward` serve every kind through the per-kind
    op, and every public op checks the kind and the gradient shape."""

    FORWARDS = {
        convops.CLASSIC: conv_classic_forward,
        convops.DILATED: conv_dilated_forward,
        convops.ADAPTIVE: lambda x, l: asc_conv_forward(x, l, np.ones((1, 1, 5, 6))),
    }
    BACKWARDS = {
        convops.CLASSIC: conv_classic_backward,
        convops.DILATED: conv_dilated_backward,
        convops.ADAPTIVE: lambda x, l, g: asc_conv_backward(x, l, np.ones((1, 1, 5, 6)), g),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,rate", [(convops.CLASSIC, 1), (convops.DILATED, 3),
                                           (convops.ADAPTIVE, 1)])
    def test_matches_per_kind_op_bit_for_bit(self, kind, rate, dtype):
        rng = RNG(40)
        x = rng.standard_normal((1, 3, 5, 6)).astype(dtype)
        layer = make_layer(rng, 4, 3, kind, rate)
        layer = ConvLayer(layer.weights.astype(dtype), layer.bias.astype(dtype), kind, rate)
        g = rng.standard_normal((1, 4, 5, 6)).astype(dtype)
        rates = rng.uniform(0.0, 2.5, (1, 1, 5, 6)).astype(dtype)
        plan = convops.build_sampling_plan(rates, 5, 6)
        y, cache = convops.conv_forward(x, layer, plan, return_cache=True)
        grads = convops.conv_backward(x, layer, g, cache)
        if kind == convops.CLASSIC:
            fwd = lambda x_, l_, cached: conv_classic_forward(x_, l_, cached)
            want = (*conv_classic_backward(x, layer, g), None)
        elif kind == convops.DILATED:
            fwd = lambda x_, l_, cached: conv_dilated_forward(x_, l_, cached)
            want = (*conv_dilated_backward(x, layer, g), None)
        else:
            fwd = lambda x_, l_, cached: asc_conv_forward(x_, l_, rates, return_cache=cached)
            want = asc_conv_backward(x, layer, rates, g)
        want_y = fwd(x, layer, True)[0]
        assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()
        # The forward-only form, of this layer and of a narrowing one.
        for lay in (layer, ConvLayer(layer.weights[:, :2], layer.bias, kind, rate)):
            x_ = x[:, :lay.in_channels]
            got = convops.conv_forward(x_, lay, plan)[0]
            assert got.tobytes() == fwd(x_, lay, False).tobytes()
        assert len(grads) == 4
        for got, ref in zip(grads, want):
            if ref is None:
                assert got is None
            else:
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_forward_keeps_no_cache_unless_asked(self):
        rng = RNG(41)
        x = rng.standard_normal((1, 2, 5, 6))
        plan = convops.build_sampling_plan(np.full((1, 1, 5, 6), 1.5), 5, 6)
        for kind in self.FORWARDS:
            layer = make_layer(rng, 2, 2, kind)
            assert convops.conv_forward(x, layer, plan)[1] is None

    def test_adaptive_needs_plan_and_cache(self):
        rng = RNG(42)
        x = rng.standard_normal((1, 2, 5, 6))
        layer = make_layer(rng, 2, 2, convops.ADAPTIVE)
        with pytest.raises(ValueError, match="sampling plan"):
            convops.conv_forward(x, layer)
        with pytest.raises(ValueError, match="forward cache"):
            convops.conv_backward(x, layer, np.zeros((1, 2, 5, 6)))

    @pytest.mark.parametrize("op_kind", list(FORWARDS))
    def test_ops_reject_a_layer_of_another_kind(self, op_kind):
        rng = RNG(43)
        x = rng.standard_normal((1, 2, 5, 6))
        g = np.zeros((1, 2, 5, 6))
        for kind in self.FORWARDS:
            if kind == op_kind:
                continue
            layer = make_layer(rng, 2, 2, kind)
            with pytest.raises(ValueError, match=f"expected a layer of kind '{op_kind}'"):
                self.FORWARDS[op_kind](x, layer)
            with pytest.raises(ValueError, match=f"expected a layer of kind '{op_kind}'"):
                self.BACKWARDS[op_kind](x, layer, g)

    @pytest.mark.parametrize("kind", list(FORWARDS))
    @pytest.mark.parametrize("shape", [(2, 2, 5, 6), (2, 5, 6)])
    def test_forwards_reject_input_that_is_not_1chw(self, kind, shape):
        layer = make_layer(RNG(45), 2, 2, kind)
        with pytest.raises(ValueError, match=r"expected \(1,C,H,W\) input"):
            self.FORWARDS[kind](np.zeros(shape), layer)

    @pytest.mark.parametrize("kind", list(FORWARDS) + ["dispatch"])
    @pytest.mark.parametrize("shape", [(1, 3, 5, 6), (1, 2, 6, 5), (2, 2, 5, 6), (2, 5, 6)])
    def test_backwards_reject_misshaped_grad_y(self, kind, shape):
        rng = RNG(44)
        x = rng.standard_normal((1, 2, 5, 6))
        g = np.zeros(shape)
        if kind == "dispatch":
            layer = make_layer(rng, 2, 2, convops.ADAPTIVE)
            plan = convops.build_sampling_plan(np.ones((1, 1, 5, 6)), 5, 6)
            _, cache = convops.conv_forward(x, layer, plan, return_cache=True)
            call = lambda: convops.conv_backward(x, layer, g, cache)
        else:
            layer = make_layer(rng, 2, 2, kind)
            call = lambda: self.BACKWARDS[kind](x, layer, g)
        with pytest.raises(ValueError, match="grad_y shape"):
            call()


def test_integer_models_never_import_scipy(tmp_path):
    """scipy is imported where the sampling plan is built, so a classic or
    dilated model never pays for its import."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_train": 2, "num_test": 1, "height": 32,
                               "width": 32, "large_radius": [6.0, 7.0],
                               "small_per_image": [1, 2]}))
    corpus, ckpt = tmp_path / "corpus", tmp_path / "d.asct"
    script = f"""
import sys
from ascnet.cli import main
assert main(["synth", "--out", {str(corpus)!r}, "--config", {str(cfg)!r}]) == 0
assert main(["train", "--model", "dilated7", "--data", {str(corpus)!r},
             "--iters", "2", "--out", {str(ckpt)!r}]) == 0
print("scipy" in sys.modules)
import numpy as np
from ascnet import convops
convops.build_sampling_plan(np.ones((1, 1, 4, 4)), 4, 4)
print("scipy" in sys.modules)
"""
    src = str(Path(convops.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["False", "True"]


def test_package_import_loads_no_submodule():
    """`import ascnet` binds nothing but its docstring: callers import the
    modules they use, so each module loads only what it needs."""
    script = """
import sys
import ascnet
print(sorted(m for m in sys.modules if m.startswith("ascnet.")))
print(sorted(n for n in vars(ascnet) if not n.startswith("__")))
"""
    src = str(Path(convops.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]
