"""The three 3x3 convolution operators: classic, integer-dilated, and
adaptive-scale (per-pixel fractional dilation with bilinear sampling).

All operators use stride 1 and zero padding sized to preserve spatial
dimensions. Forward and backward passes are hand-written; the adaptive
operator additionally produces the gradient with respect to the rate field.

Every forward takes one of two forms, by one rule for every kind, in
training and inference alike. A layer that widens (more output than
input channels) samples first: it gathers (C, 9, H*W) tap columns and
contracts them, W·cols + b. Every other layer mixes first: the layer is
linear, so Σ_t W_t·S_t(X) = Σ_t S_t(X·W_t), and one shared `_mix`
forms every tap's (H*W, O) product before a single spatial step. That
skips the nine per-tap transposes that build the tap columns, and at
32→2 it samples 2 channels instead of 32. Its (H*W, O) sum takes the
bias in place and is returned as a transposed view, with no copy, which
the next mixed layer reads as a C-contiguous (H*W, C) operand.

Every backward carries the output gradient back through each tap's
spatial step, and one shared `_unmix` forms both gradients with two GEMMs.

Classic is dilated at rate 1, and a constant integer rate field makes
the adaptive operator reproduce both bit for bit, in either form, and
its weight gradient too. `conv_forward`/`conv_backward` choose the
operator for a layer's kind, so callers never branch on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# The 3x3 window's offsets along one axis, and its nine tap offsets
# (dy, dx), row-major over the kernel window.
AXIS_OFFSETS = (-1, 0, 1)
TAP_OFFSETS = tuple((dy, dx) for dy in AXIS_OFFSETS for dx in AXIS_OFFSETS)

CLASSIC = "classic"
DILATED = "dilated"
ADAPTIVE = "adaptive"


@dataclass
class ConvLayer:
    """3x3 convolution parameters: weights (out,in,3,3), bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    kind: str = CLASSIC
    rate: int = 1  # integer dilation; only a dilated layer's may exceed 1

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ValueError(f"kernel must be (out,in,3,3), got {w.shape}")
        if self.bias.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {w.shape[0]} "
                "output channels"
            )
        if self.kind not in (CLASSIC, DILATED, ADAPTIVE):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        r = self.rate
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 1:
            raise ValueError(f"dilation rate must be an integer >= 1, got {r!r}")
        if r != 1 and self.kind != DILATED:
            raise ValueError(f"a {self.kind} layer has dilation rate 1, got {r!r}")

    @property
    def out_channels(self):
        return self.weights.shape[0]

    @property
    def in_channels(self):
        return self.weights.shape[1]


def bilinear_kernel(q, p) -> float:
    """Tent weight of integer location q for fractional sample point p.

    Both are (y, x) pairs; returns max(0,1-|qx-px|) * max(0,1-|qy-py|).
    """
    qy, qx = q
    py, px = p
    return max(0.0, 1.0 - abs(qx - px)) * max(0.0, 1.0 - abs(qy - py))


def sample_bilinear(x: np.ndarray, p, c: int) -> float:
    """Bilinearly sample channel c of x (C,H,W) at fractional point p=(y,x).

    Out-of-bounds neighbors contribute zero (implicit zero padding), so any
    p is legal, including points entirely outside the map.
    """
    if x.ndim != 3:
        raise ValueError(f"expected (C,H,W) input, got shape {x.shape}")
    channels, h, w = x.shape
    if not 0 <= c < channels:
        raise ValueError(f"channel {c} out of range [0,{channels})")
    py, px = float(p[0]), float(p[1])
    y0 = int(np.floor(py))
    x0 = int(np.floor(px))
    acc = 0.0
    for qy in (y0, y0 + 1):
        for qx in (x0, x0 + 1):
            if 0 <= qy < h and 0 <= qx < w:
                acc += bilinear_kernel((qy, qx), (py, px)) * float(x[c, qy, qx])
    return acc


def _check_input(x: np.ndarray, layer: ConvLayer, kind: str,
                 grad_y: np.ndarray | None = None) -> np.ndarray:
    """Check the layer kind, the (1,C,H,W) input and, for a backward pass,
    the shape of grad_y; returns the (C,H,W) input."""
    if layer.kind != kind:
        raise ValueError(f"expected a layer of kind {kind!r}, got {layer.kind!r}")
    if x.ndim != 4 or x.shape[0] != 1:
        raise ValueError(f"expected (1,C,H,W) input, got shape {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels, kernel expects "
            f"{layer.in_channels}"
        )
    out_shape = (1, layer.out_channels) + x.shape[2:]
    if grad_y is not None and grad_y.shape != out_shape:
        raise ValueError(
            f"grad_y shape {grad_y.shape} does not match output {out_shape}"
        )
    return x[0]


def _contract(cols: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """W·cols + b: (C, 9, N) tap columns -> (O, N) output."""
    wmat = layer.weights.reshape(layer.out_channels, -1)
    bias = layer.bias[:, None].astype(cols.dtype)
    return wmat @ cols.reshape(wmat.shape[1], -1) + bias


def _samples_first(layer: ConvLayer) -> bool:
    """The form rule: a widening layer samples first, any other mixes first."""
    return layer.out_channels > layer.in_channels


def _mix(x3: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Channels mixed before sampling: the (N, C) transposed input times
    each tap's (C, O) weights, as (9, N, O); shared by every kind."""
    c = x3.shape[0]
    w9 = layer.weights.reshape(layer.out_channels, c, 9).transpose(2, 1, 0)
    return np.matmul(x3.reshape(c, -1).T, np.ascontiguousarray(w9))


def _finish(y: np.ndarray, layer: ConvLayer, h: int, w: int) -> np.ndarray:
    """The mixed form's (N, O) sum -> (1, O, H, W) output: the bias is
    added in place and the output is a transposed view of the sum, so the
    next mixed layer's `_mix` reads it as a C-contiguous (N, C) operand."""
    y += layer.bias.astype(y.dtype)
    return y.T.reshape(1, -1, h, w)


def _unmix(ut: np.ndarray, x2: np.ndarray, layer: ConvLayer):
    """Adjoint of `_mix` for (9, O, N) tap gradients and the (C, N) input:
    (grad_x as (C, N), grad_w) from two tall GEMMs, shared by every kind."""
    o, c = layer.out_channels, layer.in_channels
    u = ut.reshape(9 * o, -1)
    grad_w = (u @ x2.T).reshape(9, o, c).transpose(1, 2, 0)
    wt = layer.weights.reshape(o, c, 9).transpose(1, 2, 0).reshape(c, 9 * o)
    return wt @ u, np.ascontiguousarray(grad_w).reshape(layer.weights.shape)


@functools.lru_cache(maxsize=64)
def _flat_shifts(h: int, w: int, rate: int) -> tuple:
    """Per tap in TAP_OFFSETS order, (lo, hi, s, wrap) on the flat (h*w)
    map: output pixels [lo, hi) read the input s pixels on, but the columns
    `wrap` of each row read across a row edge and must be zero taps. A tap
    shifted by a side or more reads nothing."""
    shifts = []
    for dy, dx in TAP_OFFSETS:
        sy, sx = rate * dy, rate * dx
        s = sy * w + sx
        # Rows whose read row is in the image, clipped to reads in the map;
        # hi >= lo, since a negative stop would wrap around.
        lo = max(max(0, -sy) * w, -s)
        hi = max(lo, min(min(h, h - sy) * w, h * w - s))
        shifts.append((lo, hi, s, slice(max(w - sx, 0), w) if sx > 0 else slice(0, -sx)))
    return tuple(shifts)


def _integer_cols(x3: np.ndarray, rate: int) -> np.ndarray:
    """Gather the 9 dilated taps of every pixel into (C, 9, H*W) columns:
    im2col for a 3x3 kernel with integer dilation; off-image taps read 0."""
    c, h, w = x3.shape
    xf, cols = x3.reshape(c, -1), np.empty((c, 9, h * w), dtype=x3.dtype)
    rows = cols.reshape(c, 9, h, w)
    for t, (lo, hi, s, wrap) in enumerate(_flat_shifts(h, w, rate)):
        cols[:, t, lo:hi] = xf[:, lo + s:hi + s]
        cols[:, t, :lo] = cols[:, t, hi:] = 0
        rows[:, t, :, wrap] = 0
    return cols


def _shift_sum(z: np.ndarray, rate: int, h: int, w: int) -> np.ndarray:
    """Spatial step of the mixed form for integer taps: each tap's (N, O)
    product `z[t]` is added at its flat shifted run, in TAP_OFFSETS order,
    after the columns its run reads across a row edge are zeroed in place.
    Those are the columns the mirrored tap (-dy, -dx) writes across one.
    Every pixel thus sums its on-image taps in tap order from +0, as each
    row of `SamplingPlan.rows` does at an integer rate."""
    y = np.zeros(z.shape[1:], dtype=z.dtype)
    rows = z.reshape(9, h, w, -1)
    shifts = _flat_shifts(h, w, rate)
    for t, ((lo, hi, s, _), (*_, wrap)) in enumerate(zip(shifts, reversed(shifts))):
        rows[t, :, wrap] = 0
        y[lo:hi] += z[t, lo + s:hi + s]
    return y


def _shift_adjoint(g: np.ndarray, rate: int, h: int, w: int) -> np.ndarray:
    """Adjoint of `_shift_sum`: (O, N) output gradient -> (9, O, N) tap
    gradients. Each run is added onto +0, as a CSR product adds it; the
    rest of a tap's row, and the columns read across a row edge, are 0."""
    ut = np.empty((9,) + g.shape, dtype=g.dtype)
    rows = ut.reshape(9, -1, h, w)
    shifts = _flat_shifts(h, w, rate)
    for t, ((lo, hi, s, _), (*_, wrap)) in enumerate(zip(shifts, reversed(shifts))):
        np.add(g[:, lo:hi], 0, out=ut[t, :, lo + s:hi + s])
        ut[t, :, :lo + s] = ut[t, :, hi + s:] = 0
        rows[t, :, :, wrap] = 0
    return ut


# Integer taps are flat shifted copies of the image: the sampling operator
# gives the same columns at several times the cost per layer.
def _int_forward(x, layer, kind, return_cache):
    x3 = _check_input(x, layer, kind)
    _, h, w = x3.shape
    if _samples_first(layer):
        y = _contract(_integer_cols(x3, layer.rate), layer).reshape(1, -1, h, w)
    else:
        y = _finish(_shift_sum(_mix(x3, layer), layer.rate, h, w), layer, h, w)
    # The integer backward reads only x and the output gradient: no cache.
    return (y, None) if return_cache else y


def _int_backward(x, layer, grad_y, kind):
    x3 = _check_input(x, layer, kind, grad_y)
    c, h, w = x3.shape
    g = grad_y.reshape(layer.out_channels, h * w)
    grad_x, grad_w = _unmix(_shift_adjoint(g, layer.rate, h, w), x3.reshape(c, -1), layer)
    return grad_x.reshape(1, c, h, w), grad_w, g.sum(axis=1)


def conv_classic_forward(x: np.ndarray, layer: ConvLayer, return_cache=False):
    """Classic 3x3 convolution; with return_cache, (y, None)."""
    return _int_forward(x, layer, CLASSIC, return_cache)


def conv_dilated_forward(x: np.ndarray, layer: ConvLayer, return_cache=False):
    """Dilated 3x3 convolution at `layer.rate`; with return_cache,
    (y, None)."""
    return _int_forward(x, layer, DILATED, return_cache)


def conv_classic_backward(x, layer, grad_y):
    return _int_backward(x, layer, grad_y, CLASSIC)


def conv_dilated_backward(x, layer, grad_y):
    return _int_backward(x, layer, grad_y, DILATED)


@dataclass
class SamplingPlan:
    """The bilinear sampler for one rate field, as two sparse operators.

    `S` is a (9*H*W, H*W) CSR matrix whose row t*H*W + p reads tap t of
    output pixel p: four entries, the tent weights of the sample point's
    bilinear corners (zero for corners off the image, whose column index
    is clipped in-bounds). 11 of a pixel's 36 entries are always zero: a
    tap's second corner along an axis where it does not move, and the
    centre tap's three. `D` holds the weights' derivatives with respect
    to the pixel's rate on the same sparsity pattern. `taps` holds the
    nine (H*W, H*W) row blocks of `S`, one per tap, as zero-copy CSR views
    of its arrays; a widening layer's forward reads every channel one tap
    block at a time, and a cached one `D`'s blocks `dtaps` too. `rows` and
    `Drows`, `S` and `D` by output pixel without their zeros, serve every
    other forward and every backward. The other views are built on first
    use and kept. Shared by every adaptive layer on the same rate field.
    """

    height: int
    width: int
    rates: np.ndarray                  # (H*W,)
    S: object = field(repr=False)      # scipy CSR, (9*H*W, H*W)
    D: object = field(repr=False)      # scipy CSR, same pattern as S
    taps: tuple = field(repr=False)    # 9 scipy CSR, (H*W, H*W), views of S

    def _corner_view(self, a):
        return a.reshape(9, -1, 4).transpose(0, 2, 1)

    @property
    def idx(self) -> np.ndarray:
        """(9, 4, H*W) clipped flat corner index; a view of `S.indices`."""
        return self._corner_view(self.S.indices)

    @property
    def weight(self) -> np.ndarray:
        """(9, 4, H*W) tent weight; a view of `S.data`."""
        return self._corner_view(self.S.data)

    @property
    def dweight_drate(self) -> np.ndarray:
        """(9, 4, H*W) rate derivative of the tent weight; a view of `D.data`."""
        return self._corner_view(self.D.data)

    def _by_pixel(self, op):
        """`op` (`S` or `D`) regrouped into one (H*W, 9*H*W) CSR row per
        output pixel, holding its nine taps' non-zero corners in tap order,
        tap t's in column block t."""
        from scipy import sparse

        n = self.height * self.width
        idx = op.indices.reshape(9, n, 4)
        blocks = np.arange(0, 9 * n, n, dtype=idx.dtype)[:, None, None]

        def by_pixel(a):
            # A pixel's four corners move as one item: 4-5x faster than
            # transposing single elements.
            corners = a.reshape(9, n, 4).view(np.dtype((np.void, 4 * a.itemsize)))
            return np.ascontiguousarray(corners.transpose(1, 0, 2)).view(a.dtype).reshape(-1)

        indptr = np.arange(0, 36 * n + 1, 36, dtype=idx.dtype)
        rows = sparse.csr_array((by_pixel(op.data), by_pixel(idx + blocks), indptr),
                                shape=(n, 9 * n))
        rows.eliminate_zeros()
        return rows

    @functools.cached_property
    def rows(self):
        """`S` by output pixel: the mixed forward's spatial product, and
        transposed (a CSC view), every adaptive backward's adjoint.

        `S`'s zeros are dropped: 11 of a pixel's 36 corners are always
        zero (a tap's second corner along an axis it does not move on),
        and off-image and integer-rate corners weigh exactly 0. So at an
        integer rate a row adds its weight-1 corners in tap order from
        +0, as `_shift_sum` does, and its transpose adds each output
        gradient onto +0 once, as `_shift_adjoint` does."""
        return self._by_pixel(self.S)

    @functools.cached_property
    def dtaps(self):
        """`D`'s tap blocks, as `taps` are `S`'s; built on first use."""
        return _tap_blocks(self.D)

    @functools.cached_property
    def Drows(self):
        """`D` by output pixel: times the mixed tap products, P."""
        return self._by_pixel(self.D)


class NonFiniteRates(ValueError):
    """The rate field holds inf or NaN: the rate network has diverged."""


def _check_rates(rates: np.ndarray, h: int, w: int) -> np.ndarray:
    if rates.shape != (1, 1, h, w):
        raise ValueError(
            f"rate field shape {rates.shape} does not match input spatial "
            f"dims (1,1,{h},{w})"
        )
    r = rates.reshape(-1)
    if np.any(r < 0):
        raise ValueError("rate field contains negative values")
    if not np.all(np.isfinite(r)):
        raise NonFiniteRates("rate field contains non-finite values")
    return r


def build_sampling_plan(rates: np.ndarray, h: int, w: int) -> SamplingPlan:
    """Sampling operators for p0 + r(p0) * tap at every pixel and tap.

    The rate derivative of the tent weight uses the floor-branch (one-sided)
    derivative, so it is well defined and non-zero at integer sample
    offsets; this keeps the rate field trainable from its all-ones start.
    """
    # Deferred: importing scipy costs about half a model set-up, and only
    # adaptive layers ever build a plan.
    from scipy import sparse

    r = _check_rates(rates, h, w)
    dtype = r.dtype
    n = h * w
    index_dtype = np.int32 if 36 * n <= np.iinfo(np.int32).max else np.int64
    dp_dr = np.array(AXIS_OFFSETS, dtype=dtype)[:, None]   # (3, 1)
    grid = np.divmod(np.arange(n), w)                      # (y, x) per pixel
    # Per axis, for the floor corner and the one after it, as (3, N)
    # arrays over the axis offsets: the tent weight and its rate derivative
    # (tent slope times dp/dr = axis offset), both zeroed off the image,
    # and the clipped coordinate.
    axes = []
    for a, size in ((0, h), (1, w)):
        p = grid[a].astype(dtype) + r * dp_dr
        p0 = np.floor(p)
        f = p - p0
        sides = []
        for side, tent, slope in ((0, 1 - f, -1), (1, f, 1)):
            q = p0 + side
            qc = np.clip(q, 0, size - 1)
            inb = qc == q
            sides.append((tent * inb, (slope * dp_dr) * inb, qc.astype(index_dtype)))
        axes.append(sides)

    # Corner k = 2 * iy + ix, written straight into CSR row order
    # (tap, pixel, corner). Tap 3 * i + j pairs y offset i with x offset j,
    # so the y arrays broadcast over the x offsets.
    weight = np.empty((3, 3, n, 4), dtype=dtype)
    dwdr = np.empty((3, 3, n, 4), dtype=dtype)
    idx = np.empty((3, 3, n, 4), dtype=index_dtype)
    for k, (ys, (wx, dwx, qx)) in enumerate(
            (ys, xs) for ys in axes[0] for xs in axes[1]):
        wy, dwy, qy = (v[:, None] for v in ys)
        np.multiply(wy, wx, out=weight[..., k])
        np.add(dwy * wx, wy * dwx, out=dwdr[..., k])
        np.add(qy * w, qx, out=idx[..., k])
    indptr = np.arange(0, 36 * n + 1, 4, dtype=index_dtype)
    shape = (9 * n, n)
    idx = idx.reshape(-1)
    S = sparse.csr_array((weight.reshape(-1), idx, indptr), shape=shape)
    D = sparse.csr_array((dwdr.reshape(-1), idx, indptr), shape=shape)
    return SamplingPlan(h, w, r, S, D, _tap_blocks(S))


def _tap_blocks(op) -> tuple:
    """The nine (H*W, H*W) row blocks of `S` or `D`, as CSR views."""
    from scipy import sparse

    n = op.shape[1]
    # Every row holds exactly 4 entries, so tap t's row block is a slice of
    # op's arrays with the first N+1 row pointers. The slices are attached
    # after construction, because scipy's constructor copies an array that
    # is much smaller than the one it views.
    taps = []
    for data, indices in zip(op.data.reshape(9, -1), op.indices.reshape(9, -1)):
        block = sparse.csr_array((n, n), dtype=op.dtype)
        block.data, block.indices, block.indptr = data, indices, op.indptr[:n + 1]
        taps.append(block)
    return tuple(taps)


def _sample(xt: np.ndarray, taps: tuple, out=None) -> np.ndarray:
    """Reads of every tap and channel of the C-contiguous (H*W, C)
    transposed input through the tap blocks `taps` (`plan.taps`, or
    `plan.dtaps` for their rate derivatives), as C-contiguous (C, 9, H*W)
    tap columns, written into `out` if given."""
    n, c = xt.shape
    # Channel-major columns feed the same contraction as the integer convs,
    # which keeps rate 1 bit-identical to classic. Each tap block's (N, C)
    # product is transposed into place while it is still in cache. A
    # whole-image (9*N, C) product would be a zero-filled 4.7 MB temporary
    # at C=32 that the allocator returns to the OS after every layer, so
    # the next layer page-faults it in again.
    if out is None:
        out = np.empty((c, 9, n), dtype=np.result_type(taps[0].dtype, xt.dtype))
    for t, s_t in enumerate(taps):
        out[:, t] = (s_t @ xt).T
    return out


def _asc_forward(x3, layer, plan, return_cache):
    """The adaptive forward; its cache is (plan, (C, H*W) input, P), where
    P = Σ_t D_t·X·W_tᵀ is the output's (H*W, O) derivative by each rate."""
    c, h, w = x3.shape
    x2 = x3.reshape(c, -1)
    if _samples_first(layer):
        xt = np.ascontiguousarray(x2.T)
        cols = _sample(xt, plan.taps)
        y = _contract(cols, layer).reshape(1, -1, h, w)
        if return_cache:    # W·(the D-read columns), in the columns' buffer
            wmat = layer.weights.reshape(layer.out_channels, -1)
            p = (wmat @ _sample(xt, plan.dtaps, cols).reshape(wmat.shape[1], -1)).T
    else:
        z = _mix(x3, layer).reshape(-1, layer.out_channels)
        y = _finish(plan.rows @ z, layer, h, w)
        if return_cache:
            p = plan.Drows @ z
    return (y, (plan, x2, p)) if return_cache else y


def asc_conv_forward(x, layer, rates, plan=None, return_cache=False):
    """Adaptive-scale convolution: taps at p0 + r(p0)*offset, bilinear reads.

    rates is a (1,1,H,W) non-negative field sampled at the output pixel and
    shared across all channels and taps. Pass a precomputed `plan` to share
    geometry across layers consuming the same field. A layer that does not
    widen mixes its channels first and samples through `plan.rows`. The
    cache is (plan, input, (H*W, O) rate-gradient factor).
    """
    x3 = _check_input(x, layer, ADAPTIVE)
    _, h, w = x3.shape
    if plan is None:
        plan = build_sampling_plan(rates, h, w)
    elif (plan.height, plan.width) != (h, w):
        raise ValueError("sampling plan dims do not match input")
    return _asc_forward(x3, layer, plan, return_cache)


def asc_conv_backward(x, layer, rates, grad_y, cache=None):
    """Gradients of the adaptive convolution for input, weights, bias and
    the rate field. Returns (grad_x, grad_w, grad_bias, grad_rates).
    Without a cache, the plan and the forward are built from `rates`."""
    x3 = _check_input(x, layer, ADAPTIVE, grad_y)
    c, h, w = x3.shape
    if cache is None:
        cache = _asc_forward(x3, layer, build_sampling_plan(rates, h, w), True)[1]
    plan, x2, p = cache
    n = h * w
    g = grad_y.reshape(layer.out_channels, n)
    # The tap gradients, (9*N, O) in S's row order, transposed once.
    ut = (plan.rows.T @ g.T).reshape(9, n, -1).transpose(0, 2, 1)
    grad_x, grad_w = _unmix(np.ascontiguousarray(ut), x2, layer)
    grad_x = grad_x.astype(x3.dtype, copy=False).reshape(1, c, h, w)
    grad_rates = np.einsum("no,on->n", p, g).reshape(1, 1, h, w)
    return grad_x, grad_w, g.sum(axis=1), grad_rates


def conv_forward(x, layer, plan=None, return_cache=False):
    """Forward of a layer of any kind; returns (y, cache).

    An adaptive layer reads the rate field through `plan`, which is then
    required; with return_cache its (plan, input, rate-gradient factor)
    cache is returned for `conv_backward`. Otherwise the cache is None.

    The form depends only on the layer, never on return_cache: one that
    widens samples first, and every other mixes its channels first.
    """
    if layer.kind == ADAPTIVE:
        if plan is None:
            raise ValueError("an adaptive layer needs a sampling plan")
        out = asc_conv_forward(x, layer, None, plan=plan, return_cache=return_cache)
    elif layer.kind == DILATED:
        out = conv_dilated_forward(x, layer, return_cache)
    else:
        out = conv_classic_forward(x, layer, return_cache)
    return out if return_cache else (out, None)


def conv_backward(x, layer, grad_y, cache=None):
    """Backward of a layer of any kind: (grad_x, grad_w, grad_bias,
    grad_rates), with grad_rates None unless the layer is adaptive. An
    adaptive layer needs the cache `conv_forward` returned for it."""
    if layer.kind == ADAPTIVE:
        if cache is None:
            raise ValueError("an adaptive layer needs its forward cache")
        return asc_conv_backward(x, layer, None, grad_y, cache=cache)
    if layer.kind == DILATED:
        return (*conv_dilated_backward(x, layer, grad_y), None)
    return (*conv_classic_backward(x, layer, grad_y), None)


def oracle_asc_forward(x, layer, rates) -> np.ndarray:
    """Literal adaptive convolution summing the tent kernel over every
    integer location of the map. Quadratic in pixels; test oracle only."""
    x3 = _check_input(x, layer, ADAPTIVE)
    c, h, w = x3.shape
    r = _check_rates(rates, h, w).reshape(h, w)
    o = layer.out_channels
    y = np.zeros((1, o, h, w), dtype=x3.dtype)
    for oc in range(o):
        for py0 in range(h):
            for px0 in range(w):
                acc = float(layer.bias[oc])
                for t, (dy, dx) in enumerate(TAP_OFFSETS):
                    sy = py0 + r[py0, px0] * dy
                    sx = px0 + r[py0, px0] * dx
                    for ic in range(c):
                        val = 0.0
                        for qy in range(h):
                            for qx in range(w):
                                f = bilinear_kernel((qy, qx), (sy, sx))
                                if f != 0.0:
                                    val += f * float(x3[ic, qy, qx])
                        acc += float(layer.weights[oc, ic, t // 3, t % 3]) * val
                y[0, oc, py0, px0] = acc
    return y
