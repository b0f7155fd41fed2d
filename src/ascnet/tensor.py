"""Core numeric utilities shared by every other module.

Tensors are plain numpy ndarrays. Conventions used throughout the package:
4-D activations are laid out NCHW, 4-D kernels OIHW, float32 for training
and float64 for gradient checking. Randomness always flows through
``make_rng``, which is numpy's PCG64 generator: identical seeds give
identical value streams on every platform.

Also implements the binary tensor container used for checkpoints (magic
"ASCT", see `save_tensors` / `load_tensors`).
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"ASCT"
CONTAINER_VERSION = 1

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given 64-bit seed."""
    return np.random.default_rng(seed)


def he_init(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """He (fan-in) normal init for conv kernels shaped (out, in, kh, kw)."""
    fan_in = int(np.prod(shape[1:]))
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of relu. Subgradient at exactly 0 is 0. The mask takes
    grad_out's layout: a mixed-form x is a transposed view."""
    return grad_out * np.greater(x, 0, out=np.empty_like(grad_out, dtype=bool))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean per-pixel cross entropy between softmax(logits) and integer labels.

    logits: (1, C, H, W); labels: (1, H, W) integers in [0, C).
    Returns (loss, grad_logits) with grad_logits = (softmax - onehot) / (H*W).
    Softmax uses max-subtraction for numerical stability.
    """
    if logits.ndim != 4 or logits.shape[0] != 1:
        raise ValueError(f"logits must be (1,C,H,W), got {logits.shape}")
    n, c, h, w = logits.shape
    lab = np.asarray(labels).reshape(h, w)
    bad = (lab < 0) | (lab >= c)
    if bad.any():
        yy, xx = np.argwhere(bad)[0]
        raise ValueError(
            f"label {lab[yy, xx]} out of range [0,{c}) at pixel ({yy},{xx})"
        )

    z = np.ascontiguousarray(logits[0])   # a mixed conv's output is a view
    zmax = z.max(axis=0)
    shifted = z - zmax
    e = np.exp(shifted)
    denom = e.sum(axis=0)
    probs = e / denom
    logp = shifted - np.log(denom)

    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    npix = h * w
    loss = float(-logp[lab, rows, cols].sum() / npix)

    probs[lab, rows, cols] -= 1.0
    probs /= npix
    return loss, probs.reshape(1, c, h, w)


class Adam:
    """Adam with bias correction (`BETA1`, `BETA2`, `EPS`) over a dict of
    named parameter arrays. Each step updates the parameters and their
    moment arrays in place."""

    def __init__(self, params: dict, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        for name, p in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient of {name} has shape {g.shape}, "
                                 f"expected {p.shape}")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def save_tensors(path, tensors: dict) -> None:
    """Write named tensors to the binary container format.

    Layout: magic "ASCT", version u16 LE, tensor count u32 LE; then per
    tensor: name length u16 + UTF-8 name, dtype code u8 (0=f32, 1=f64),
    ndim u8, dims u32 LE each, raw row-major little-endian payload.
    """
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", CONTAINER_VERSION, len(tensors)))
        for name, arr in tensors.items():
            # Not ascontiguousarray, which makes a 0-d array 1-d; tobytes
            # below writes row-major order anyway.
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_CODE:
                raise ValueError(f"unsupported dtype {arr.dtype} for '{name}'")
            code = _DTYPE_CODE[arr.dtype]
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(_CODE_DTYPE[code], copy=False).tobytes())


def load_tensors(path) -> dict:
    """Read a container written by `save_tensors`; preserves tensor order.

    Every header field and payload is bounds-checked: a truncated or
    malformed file raises ValueError naming the file and the byte offset.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a tensor container (bad magic)")

    def fail(off, what):
        raise ValueError(f"{path}: {what} at offset {off} "
                         f"(file is {len(data)} bytes)")

    def unpack(fmt, off, what):
        if off + struct.calcsize(fmt) > len(data):
            fail(off, f"truncated {what}")
        return struct.unpack_from(fmt, data, off)

    version, count = unpack("<HI", 4, "header")
    if version != CONTAINER_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    off = 10
    out = {}
    for _ in range(count):
        (nlen,) = unpack("<H", off, "name length")
        off += 2
        (raw_name,) = unpack(f"<{nlen}s", off, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            fail(off, "tensor name is not UTF-8")
        if name in out:
            fail(off, f"repeated tensor name '{name}'")
        off += nlen
        code, ndim = unpack("<BB", off, f"header of '{name}'")
        if code not in _CODE_DTYPE:
            fail(off, f"unknown dtype code {code} for '{name}'")
        off += 2
        dims = unpack(f"<{ndim}I", off, f"dims of '{name}'")
        off += 4 * ndim
        dtype = _CODE_DTYPE[code]
        size = math.prod(dims)
        nbytes = size * dtype.itemsize
        if off + nbytes > len(data):
            fail(off, f"truncated payload of '{name}' ({nbytes} bytes)")
        arr = np.frombuffer(data, dtype=dtype, count=size, offset=off).reshape(dims)
        off += nbytes
        out[name] = arr.astype(dtype.newbyteorder("="))
    if off != len(data):
        fail(off, f"{len(data) - off} trailing bytes")
    return out
