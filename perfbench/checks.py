"""End-of-run output checks on a workload's own tensors.

Each check returns a `CheckResult`. The checks call the operators through
their module attributes (`convops.asc_conv_forward`, ...), so a test can
substitute a broken operator and see the check fail.

Tolerances, all relative:
  adjoint identities (float64)           1e-9 of |<A x, g>| scale
  rate-gradient directional derivative   1e-6 of sum |grad_r * delta|
  asc forward vs sample_bilinear         1e-12 of max(1, |value|)
  rate 1 vs classic (float32)            bit for bit
  float32 vs float64 logits              LOGIT_RTOL of max(1, max |logit|)
  learning                               last-window mean loss at most
                                         LEARN_RATIO of the first-window mean
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ascnet import convops, models

ADJOINT_RTOL = 1e-9
RATE_GRAD_RTOL = 1e-6
BILINEAR_RTOL = 1e-12
LOGIT_RTOL = 1e-4
LEARN_RATIO = 0.9
# Rates within this distance of an integer sit on a tent-kernel kink and are
# left out of the finite-difference direction; the step keeps clear of it.
KINK_MARGIN = 1e-5
FD_STEP = 1e-7


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _layer64(layer, kind=None):
    """Bias-free float64 copy of `layer`, so the layer map is linear."""
    return convops.ConvLayer(layer.weights.astype(np.float64),
                             np.zeros(layer.out_channels), kind or layer.kind,
                             layer.rate)


def _adjoint(name, x, layer, forward, backward, rng) -> CheckResult:
    """<A x, g> = <x, A^T g> and <A_x W, g> = <W, grad_W> for a bias-free
    copy of `layer` in float64; grad_b must equal the summed g."""
    y = forward(x, layer)
    g = rng.standard_normal(y.shape)
    gx, gw, gb = backward(x, layer, g)[:3]
    lhs = float(np.vdot(y, g))
    scale = float(np.linalg.norm(y) * np.linalg.norm(g)) or 1.0
    err_x = abs(lhs - float(np.vdot(x, gx))) / scale
    err_w = abs(lhs - float(np.vdot(layer.weights, gw))) / scale
    bias_ok = np.allclose(gb, g.sum(axis=(0, 2, 3)), rtol=ADJOINT_RTOL, atol=0.0)
    ok = err_x <= ADJOINT_RTOL and err_w <= ADJOINT_RTOL and bias_ok
    return CheckResult(name, bool(ok), f"rel err x={err_x:.2e} w={err_w:.2e} "
                                       f"bias grad {'ok' if bias_ok else 'wrong'}")


def asc_adjoint(x, layer, rates, rng) -> CheckResult:
    x64 = x.astype(np.float64)
    r64 = rates.astype(np.float64)
    return _adjoint(
        f"adjoint.asc.{layer.in_channels}x{layer.out_channels}", x64,
        _layer64(layer, convops.ADAPTIVE),
        lambda x_, l_: convops.asc_conv_forward(x_, l_, r64),
        lambda x_, l_, g_: convops.asc_conv_backward(x_, l_, r64, g_),
        rng,
    )


def int_adjoint(x, layer, rng) -> CheckResult:
    if layer.kind == convops.CLASSIC:
        fwd, bwd = convops.conv_classic_forward, convops.conv_classic_backward
    else:
        fwd, bwd = convops.conv_dilated_forward, convops.conv_dilated_backward
    return _adjoint(
        f"adjoint.{layer.kind}.{layer.in_channels}x{layer.out_channels}.r{layer.rate}",
        x.astype(np.float64), _layer64(layer),
        lambda x_, l_: fwd(x_, l_), lambda x_, l_, g_: bwd(x_, l_, g_), rng,
    )


def asc_rate_gradient(x, layer, rates, rng) -> CheckResult:
    """Central difference of <A_r x, g> along a random rate direction that
    is zero on pixels whose rate is (near) an integer. The sampler is
    piecewise quadratic in the rate, so away from kinks the central
    difference is exact up to rounding."""
    name = f"rate_grad.asc.{layer.in_channels}x{layer.out_channels}"
    x64 = x.astype(np.float64)
    l64 = _layer64(layer, convops.ADAPTIVE)
    r64 = rates.astype(np.float64)
    smooth = np.abs(r64 - np.round(r64)) >= KINK_MARGIN
    if not smooth.any():
        return CheckResult(name, False, "no rate away from an integer to test")
    g = rng.standard_normal((1, layer.out_channels) + x.shape[2:])
    delta = rng.standard_normal(r64.shape) * smooth
    gr = convops.asc_conv_backward(x64, l64, r64, g)[3]

    def f(r):
        return float(np.vdot(convops.asc_conv_forward(x64, l64, r), g))

    fd = (f(r64 + FD_STEP * delta) - f(r64 - FD_STEP * delta)) / (2 * FD_STEP)
    analytic = float(np.vdot(gr, delta))
    scale = float(np.abs(gr * delta).sum())
    err = abs(fd - analytic)
    ok = err <= RATE_GRAD_RTOL * scale + 1e-12
    return CheckResult(name, ok, f"fd={fd:.6e} analytic={analytic:.6e} "
                                 f"tested {smooth.mean():.3f} of pixels")


def asc_vs_bilinear(x, rates, rng, pixels=16, channels=2) -> CheckResult:
    """Every tap of `asc_conv_forward` with one-hot kernels against the
    scalar reference `sample_bilinear` at random pixels and channels."""
    x64 = x.astype(np.float64)
    r64 = rates.astype(np.float64)
    c_total, h, w = x64.shape[1:]
    eye = np.zeros((9, 1, 3, 3))
    for t in range(9):
        eye[t, 0, t // 3, t % 3] = 1.0
    layer = convops.ConvLayer(eye, np.zeros(9), convops.ADAPTIVE)
    worst = 0.0
    for c in rng.choice(c_total, size=min(channels, c_total), replace=False):
        xc = x64[:, c:c + 1]
        taps = convops.asc_conv_forward(xc, layer, r64)[0]
        for flat in rng.choice(h * w, size=pixels, replace=False):
            py, px = divmod(int(flat), w)
            r = r64[0, 0, py, px]
            for t, (dy, dx) in enumerate(convops.TAP_OFFSETS):
                ref = convops.sample_bilinear(xc[0], (py + r * dy, px + r * dx), 0)
                err = abs(taps[t, py, px] - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
    return CheckResult("bilinear.asc", worst <= BILINEAR_RTOL,
                       f"max rel err {worst:.2e}")


def rate_one_is_classic(x, layer) -> CheckResult:
    """An adaptive layer at rate 1 equals the classic layer bit for bit."""
    la = convops.ConvLayer(layer.weights, layer.bias, convops.ADAPTIVE)
    lc = convops.ConvLayer(layer.weights, layer.bias, convops.CLASSIC)
    ones = np.ones((1, 1) + x.shape[2:], dtype=x.dtype)
    ya = convops.asc_conv_forward(x, la, ones)
    yc = convops.conv_classic_forward(x, lc)
    same = bool(np.array_equal(ya, yc))
    diff = float(np.max(np.abs(ya.astype(np.float64) - yc)))
    return CheckResult(f"rate1.{layer.in_channels}x{layer.out_channels}", same,
                       f"max abs diff {diff:.3e}")


def cast_model(model, dtype):
    """Copy of `model` with every parameter cast to `dtype`."""
    def conv(l):
        return convops.ConvLayer(l.weights.astype(dtype), l.bias.astype(dtype),
                                 l.kind, l.rate)
    ratenet = None
    if model.ratenet is not None:
        ratenet = models.RateNetwork([conv(l) for l in model.ratenet.layers])
    return models.Model(model.spec, [conv(l) for l in model.layers], ratenet)


def logits_vs_f64(model, image, crop=32) -> CheckResult:
    """float32 logits of a centre crop against the same model in float64.
    The crop keeps the float64 forward (which holds every layer's corner
    cache) small in memory."""
    h, w = image.shape[2:]
    y0, x0 = (h - crop) // 2, (w - crop) // 2
    img = np.ascontiguousarray(image[:, :, y0:y0 + crop, x0:x0 + crop])
    l32, _ = models.model_forward(model, img)
    l64, _ = models.model_forward(cast_model(model, np.float64), img.astype(np.float64))
    scale = max(1.0, float(np.abs(l64).max()))
    err = float(np.abs(l32 - l64).max()) / scale
    finite = bool(np.isfinite(l32).all())
    return CheckResult("logits.f32_vs_f64", finite and err <= LOGIT_RTOL,
                       f"max rel err {err:.2e}")


def learning(losses, window=20) -> CheckResult:
    """The loss window ends lower than it starts."""
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    ok = bool(np.isfinite(last)) and last <= LEARN_RATIO * first
    return CheckResult("learning", ok, f"mean loss {first:.4f} -> {last:.4f}")
