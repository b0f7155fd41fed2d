"""The three 3x3 convolution operators: classic, integer-dilated, and
adaptive-scale (per-pixel fractional dilation with bilinear sampling).

All operators use stride 1 and zero padding sized to preserve spatial
dimensions. Forward and backward passes are hand-written; the adaptive
operator additionally produces the gradient with respect to the rate field.

Every forward takes one of two forms, by one rule for every kind. A
forward that keeps a cache (return_cache, so a backward follows), or
whose layer widens (more output than input channels), samples first: it
gathers (C, 9, H*W) tap columns and contracts them, W·cols + b. Training
keeps this form, because the adaptive backward reuses the tap columns
for the weight gradient. Any other forward mixes first: the layer is
linear, so Σ_t W_t·S_t(X) = Σ_t S_t(X·W_t), and one shared `_mix`
forms every tap's (H*W, O) product before a single spatial step. That
skips the nine per-tap transposes that build the tap columns, and at
32→2 it samples 2 channels instead of 32. Its (H*W, O) sum takes the
bias in place and is returned as a transposed view, with no copy, which
the next mixed layer reads as a C-contiguous (H*W, C) operand.

Classic is dilated at rate 1, and a constant integer rate field makes
the adaptive operator reproduce both bit for bit, in either form.
`conv_forward`/`conv_backward` choose the operator for a layer's kind,
so callers never branch on it.
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


def _samples_first(layer: ConvLayer, return_cache: bool) -> bool:
    """The form rule: sample first when a backward will follow or the
    layer widens; otherwise mix the channels first."""
    return return_cache or layer.out_channels > layer.in_channels


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


def _param_grads(cols: np.ndarray, layer: ConvLayer, g: np.ndarray):
    """Adjoint of `_contract` for the parameters, given the (O, N) output
    gradient g: returns (grad_w, grad_b). OpenBLAS forms (cols @ gᵀ)ᵀ 1.4-1.8x
    faster than g @ colsᵀ, and with the same bits at the models' shapes."""
    grad_w = (cols.reshape(-1, g.shape[1]) @ g.T).T
    return grad_w.reshape(layer.weights.shape), g.sum(axis=1)


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


def _cols_to_image(grad_cols: np.ndarray, rate: int, h: int, w: int):
    """Adjoint of `_integer_cols`: add each tap's columns back onto the
    image, in TAP_OFFSETS order, as one flat run after zeroing the tap's
    wrap columns in place; +0.0 changes no bit of a sum started at +0."""
    rows = grad_cols.reshape(-1, 9, h, w)
    grad_x = np.zeros((1, rows.shape[0], h * w), dtype=grad_cols.dtype)
    for t, (lo, hi, s, wrap) in enumerate(_flat_shifts(h, w, rate)):
        rows[:, t, :, wrap] = 0
        grad_x[0, :, lo + s:hi + s] += grad_cols[:, t, lo:hi]
    return grad_x.reshape(1, -1, h, w)


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


# Integer taps are flat shifted copies of the image: the sampling operator
# gives the same columns at several times the cost per layer.
def _int_forward(x, layer, kind, return_cache):
    x3 = _check_input(x, layer, kind)
    _, h, w = x3.shape
    if _samples_first(layer, return_cache):
        y = _contract(_integer_cols(x3, layer.rate), layer).reshape(1, -1, h, w)
    else:
        y = _finish(_shift_sum(_mix(x3, layer), layer.rate, h, w), layer, h, w)
    # The integer backward gathers its columns from x again: no cache.
    return (y, None) if return_cache else y


def _int_backward(x, layer, grad_y, kind):
    x3 = _check_input(x, layer, kind, grad_y)
    c, h, w = x3.shape
    g = grad_y.reshape(layer.out_channels, h * w)
    # The input columns are freed before the gradient columns are formed,
    # so only one (C, 9, H*W) array is alive at a time.
    grad_w, grad_b = _param_grads(_integer_cols(x3, layer.rate), layer, g)
    grad_cols = layer.weights.reshape(layer.out_channels, c * 9).T @ g
    return _cols_to_image(grad_cols.reshape(c, 9, -1), layer.rate, h, w), grad_w, grad_b


def conv_classic_forward(x: np.ndarray, layer: ConvLayer, return_cache=False):
    """Classic 3x3 convolution; with return_cache, (y, None) in the form
    a backward pairs with."""
    return _int_forward(x, layer, CLASSIC, return_cache)


def conv_dilated_forward(x: np.ndarray, layer: ConvLayer, return_cache=False):
    """Dilated 3x3 convolution at `layer.rate`; with return_cache,
    (y, None) in the form a backward pairs with."""
    return _int_forward(x, layer, DILATED, return_cache)


def conv_classic_backward(x, layer, grad_y):
    return _int_backward(x, layer, grad_y, CLASSIC)


def conv_dilated_backward(x, layer, grad_y):
    return _int_backward(x, layer, grad_y, DILATED)


@dataclass
class SamplingPlan:
    """The bilinear sampler for one rate field, as two sparse operators.

    `S` is a (9*H*W, H*W) CSR matrix whose row t*H*W + p reads tap t of
    output pixel p: four non-zeros, the tent weights of the sample point's
    bilinear corners (zero for corners off the image, whose column index
    is clipped in-bounds). `D` holds the weights' derivatives with respect
    to the pixel's rate on the same sparsity pattern. `taps` holds the
    nine (H*W, H*W) row blocks of `S`, one per tap, as zero-copy CSR views
    of its arrays; the sample-first forward reads every channel one tap
    block at a time. `rows` and `ST`, the mixed forward's and the input
    gradient's regroupings of `S`, are built on first use and kept; `rows`
    keeps only `S`'s non-zero entries. Shared by every adaptive layer
    consuming the same rate field.
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

    @functools.cached_property
    def rows(self):
        """(H*W, 9*H*W) CSR: `S` regrouped into one row per output pixel,
        holding its nine taps' non-zero corners in tap order, tap t's in
        column block t. The mixed forward's one spatial product.

        `S`'s zeros are dropped: 11 of a pixel's 36 corners are always
        zero (a tap's second corner along an axis it does not move on),
        and off-image and integer-rate corners weigh exactly 0. So at an
        integer rate a row adds its weight-1 corners in tap order from
        +0, as `_shift_sum` does."""
        from scipy import sparse

        n = self.height * self.width
        idx = self.S.indices.reshape(9, n, 4)
        blocks = np.arange(0, 9 * n, n, dtype=idx.dtype)[:, None, None]

        def by_pixel(a):
            # A pixel's four corners move as one item: 4-5x faster than
            # transposing single elements.
            corners = a.reshape(9, n, 4).view(np.dtype((np.void, 4 * a.itemsize)))
            return np.ascontiguousarray(corners.transpose(1, 0, 2)).view(a.dtype).reshape(-1)

        indptr = np.arange(0, 36 * n + 1, 36, dtype=idx.dtype)
        rows = sparse.csr_array((by_pixel(self.S.data), by_pixel(idx + blocks), indptr),
                                shape=(n, 9 * n))
        rows.eliminate_zeros()
        return rows

    @functools.cached_property
    def ST(self):
        """`S` transposed, (H*W, 9*H*W) CSC on S's arrays: the input
        gradient's operator, shared by every adaptive backward."""
        return self.S.T


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
    # Every row holds exactly 4 entries, so tap t's row block is a slice of
    # S's arrays with the first N+1 row pointers. The slices are attached
    # after construction, because scipy's constructor copies an array that
    # is much smaller than the one it views.
    taps = []
    for data, indices in zip(S.data.reshape(9, -1), S.indices.reshape(9, -1)):
        block = sparse.csr_array((n, n), dtype=dtype)
        block.data, block.indices, block.indptr = data, indices, S.indptr[:n + 1]
        taps.append(block)
    return SamplingPlan(h, w, r, S, D, tuple(taps))


def _sample(x3: np.ndarray, plan: SamplingPlan):
    """Bilinear reads of every tap and channel through `plan`: returns the
    adaptive cache (plan, (H*W, C) transposed input, C-contiguous
    (C, 9, H*W) tap columns)."""
    c, h, w = x3.shape
    n = h * w
    xt = np.ascontiguousarray(x3.reshape(c, n).T)
    # Channel-major columns feed the same contraction as the integer convs,
    # which keeps rate 1 bit-identical to classic. Each tap block's (N, C)
    # product is transposed into place while it is still in cache. A
    # whole-image (9*N, C) product would be a zero-filled 4.7 MB temporary
    # at C=32 that the allocator returns to the OS after every layer, so
    # the next layer page-faults it in again.
    sampled = np.empty((c, 9, n), dtype=np.result_type(plan.S.dtype, xt.dtype))
    for t, s_t in enumerate(plan.taps):
        sampled[:, t] = (s_t @ xt).T
    return plan, xt, sampled


def asc_conv_forward(x, layer, rates, plan=None, return_cache=False):
    """Adaptive-scale convolution: taps at p0 + r(p0)*offset, bilinear reads.

    rates is a (1,1,H,W) non-negative field sampled at the output pixel and
    shared across all channels and taps. Pass a precomputed `plan` to share
    geometry across layers consuming the same field. The cache is
    (plan, transposed input, tap columns). Without return_cache, a layer
    that does not widen mixes its channels first and samples through
    `plan.rows`.
    """
    x3 = _check_input(x, layer, ADAPTIVE)
    _, h, w = x3.shape
    if plan is None:
        plan = build_sampling_plan(rates, h, w)
    elif (plan.height, plan.width) != (h, w):
        raise ValueError("sampling plan dims do not match input")
    if not _samples_first(layer, return_cache):
        y = plan.rows @ _mix(x3, layer).reshape(9 * h * w, -1)
        return _finish(y, layer, h, w)
    cache = _sample(x3, plan)
    y = _contract(cache[2], layer).reshape(1, -1, h, w)
    if return_cache:
        return y, cache
    return y


def asc_conv_backward(x, layer, rates, grad_y, cache=None):
    """Gradients of the adaptive convolution for input, weights, bias and
    the rate field. Returns (grad_x, grad_w, grad_bias, grad_rates)."""
    x3 = _check_input(x, layer, ADAPTIVE, grad_y)
    c, h, w = x3.shape
    if cache is None:
        cache = _sample(x3, build_sampling_plan(rates, h, w))
    plan, xt, sampled = cache

    n = h * w
    g = grad_y.reshape(layer.out_channels, n)
    grad_w, grad_b = _param_grads(sampled, layer, g)
    # Tap gradients in S's row order, (9*N, C): g^T @ W_t for each tap t.
    wtaps = layer.weights.reshape(layer.out_channels, c, 9).transpose(2, 0, 1)
    grad_taps = np.matmul(g.T, wtaps).reshape(9 * n, c)

    grad_x = plan.ST @ grad_taps                          # (N, C)
    grad_x = np.ascontiguousarray(grad_x.T, dtype=x3.dtype).reshape(1, c, h, w)

    # d(output)/d(rate) at each pixel: the tent-weight derivatives read the
    # input like S does, contracted with the tap gradients.
    dtaps = plan.D @ xt                                   # (9*N, C)
    grad_rates = np.einsum("ij,ij->i", dtaps, grad_taps).reshape(9, n).sum(axis=0)
    grad_rates = grad_rates.reshape(1, 1, h, w)

    return grad_x, grad_w, grad_b, grad_rates


def conv_forward(x, layer, plan=None, return_cache=False):
    """Forward of a layer of any kind; returns (y, cache).

    An adaptive layer reads the rate field through `plan`, which is then
    required; with return_cache its (plan, transposed input, tap columns)
    cache is returned for `conv_backward`. Otherwise the cache is None.

    return_cache also picks the form. With it, every kind samples first:
    training's backward reuses the adaptive tap columns, and its bits stay
    those of the sample-first code. Without it, a layer that does not
    widen mixes its channels first. On 64x64 images with 1 BLAS thread
    that took `ascnet14` eval from 17.8 to 28.4 images/s and `ascnet7`
    from 7.4 to 6.9 ms per image, and cost `classic7` and `dilated7`
    about 0.2 ms per image (1.2 to 1.3-1.4 ms): the integer kinds keep the
    form that is bit-identical to the adaptive one. Dropping `rows`'
    zeros, the transpose copy and a fresh ReLU output then took
    `ascnet14` eval from 30.2 to 39.0 images/s, `ascnet7` from 6.9 to 5.2
    ms per image, and `classic7`/`dilated7` from 1.30-1.32 to 1.23-1.24 ms.
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
