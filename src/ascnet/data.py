"""Synthetic multi-scale segmentation corpus, preprocessing, overlap
metrics, and image/rate-field file I/O (binary PGM, CSV, corpus layout).

The generated images contain non-overlapping disks from two radius
populations (small and large) drawn as bright outlines on a noisy
background; labels mark the full disk interior. Filling a large interior
requires context well beyond a 7-layer classic receptive field, which is
what makes the scale-adaptive operators measurably better on this corpus.
"""

from __future__ import annotations

import csv
import numbers
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor


@dataclass
class SegmentationSample:
    image: np.ndarray                 # (1,1,H,W) float32, decoded pixels
    labels: np.ndarray                # (1,H,W) uint8 class per pixel
    meta: list                        # [(cy, cx, radius), ...]
    pixels: np.ndarray                # (H,W) uint8/uint16 PGM samples
    maxval: int                       # the PGM header's maxval: white


@dataclass
class SynthConfig:
    height: int = 64
    width: int = 64
    num_train: int = 200
    num_test: int = 50
    small_radius: tuple = (2.0, 4.0)
    large_radius: tuple = (10.0, 16.0)
    small_per_image: tuple = (1, 3)
    large_per_image: tuple = (1, 1)
    background_level: float = 0.25
    foreground_level: float = 0.9
    outline_width: float = 2.0
    noise_sigma: float = 0.05
    seed: int = 0
    max_place_tries: int = 200

    def __post_init__(self):
        # Each field takes the kind of number its default holds; a tuple
        # default marks a pair.
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            pair = isinstance(default, tuple)
            integral = isinstance(default[0] if pair else default, int)
            if pair:
                ok = (isinstance(value, (tuple, list)) and len(value) == 2
                      and all(_is_number(v, integral) for v in value))
            else:
                ok = _is_number(value, integral)
            if not ok:
                kind = "integer" if integral else "number"
                raise TypeError(f"{f.name}: {value!r} is not supported, "
                                f"expected {'a pair of ' * pair}{kind}"
                                f"{'s' * pair}")
        for name, least in (("height", 32), ("width", 32), ("num_train", 0),
                            ("num_test", 0), ("seed", 0), ("noise_sigma", 0),
                            ("max_place_tries", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name}: {value!r} must be >= {least}")
        if self.outline_width <= 0:
            raise ValueError(f"outline_width: {self.outline_width!r} must be > 0")
        # The renderer clips to [0, 1]: a level outside only flattens the image.
        for name in ("background_level", "foreground_level"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name}: {value!r} must be in [0, 1]")
        for name in ("small_per_image", "large_per_image"):
            lo, hi = value = getattr(self, name)
            if not 0 <= lo <= hi:
                raise ValueError(f"{name}: {value!r} must be an ordered pair "
                                 "of counts >= 0")
        limit = min(self.height, self.width) / 2 - 1  # room for r + 1 each side
        for name in ("small_radius", "large_radius"):
            lo, hi = value = getattr(self, name)
            if lo <= 0 or hi < lo:
                raise ValueError(f"{name}: {value!r} must be positive and ordered")
            if hi > limit:
                raise ValueError(f"{name} upper end {hi} exceeds min(height, "
                                 f"width) / 2 - 1 = {limit}: no disk fits")
        if self.small_radius[1] >= self.large_radius[0]:
            raise ValueError(f"small_radius: {self.small_radius!r} and "
                             f"large_radius: {self.large_radius!r} must be "
                             "disjoint")


def _is_number(value, integral: bool) -> bool:
    """An int, or with integral=False any real number; never a bool."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def preprocess(raw: np.ndarray) -> np.ndarray:
    """Normalize to zero mean, unit variance. Errors on constant input."""
    raw = np.asarray(raw, dtype=np.float32)
    std = raw.std()
    if std == 0:
        raise ValueError("cannot normalize a constant image (zero variance)")
    return (raw - raw.mean()) / std


def _place_disks(rng, cfg):
    """Sample non-overlapping disk placements; raises after bounded retries."""
    disks = []
    counts = (
        (cfg.large_per_image, cfg.large_radius),
        (cfg.small_per_image, cfg.small_radius),
    )
    for (lo_n, hi_n), (lo_r, hi_r) in counts:
        n = int(rng.integers(lo_n, hi_n + 1))
        for _ in range(n):
            for attempt in range(cfg.max_place_tries):
                radius = float(rng.uniform(lo_r, hi_r))
                cy = float(rng.uniform(radius + 1, cfg.height - radius - 1))
                cx = float(rng.uniform(radius + 1, cfg.width - radius - 1))
                ok = all(
                    np.hypot(cy - oy, cx - ox) > radius + orad + 2.0
                    for oy, ox, orad in disks
                )
                if ok:
                    disks.append((cy, cx, radius))
                    break
            else:
                raise RuntimeError(
                    f"max_place_tries: could not place a disk after "
                    f"{cfg.max_place_tries} tries"
                )
    return disks


def _render_sample(rng, cfg, name) -> SegmentationSample:
    h, w = cfg.height, cfg.width
    disks = _place_disks(rng, cfg)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    raw = np.full((h, w), cfg.background_level, dtype=np.float64)
    labels = np.zeros((h, w), dtype=np.uint8)
    for cy, cx, radius in disks:
        dist = np.hypot(yy - cy, xx - cx)
        labels[dist <= radius] = 1
        ring = (dist <= radius) & (dist > radius - cfg.outline_width)
        raw[ring] = cfg.foreground_level
    raw = raw + rng.normal(0.0, cfg.noise_sigma, size=(h, w))
    raw = np.clip(raw, 0.0, 1.0)
    # Through float32: the corpus file's bytes depend on it.
    maxval = np.iinfo(np.uint16).max
    pixels = np.round(raw.astype(np.float32) * maxval).astype(np.uint16)
    try:
        image = decode(pixels, maxval, name)
    except ValueError as exc:
        raise ValueError(f"{exc}; noise_sigma: {cfg.noise_sigma!r} "
                         "adds no variance to it") from None
    return SegmentationSample(image, labels.reshape(1, h, w), disks, pixels,
                              maxval)


def generate_synth(cfg: SynthConfig):
    """Deterministically generate (train, test) sample lists from cfg.seed."""
    rng = tensor.make_rng(cfg.seed)
    train = [_render_sample(rng, cfg, f"train sample {i}")
             for i in range(cfg.num_train)]
    test = [_render_sample(rng, cfg, f"test sample {i}")
            for i in range(cfg.num_test)]
    return train, test


def overlap_counts(pred_mask, true_mask):
    """(|P&T|, |P|, |T|) of two same-shaped boolean masks."""
    p = np.asarray(pred_mask, dtype=bool)
    t = np.asarray(true_mask, dtype=bool)
    if p.shape != t.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {t.shape}")
    return int((p & t).sum()), int(p.sum()), int(t.sum())


def overlap_metrics(inter, np_, nt) -> dict:
    """Dice 2|P&T|/(|P|+|T|), precision |P&T|/|P| and recall |P&T|/|T| from
    the counts. Each is 1.0 when both masks are empty; precision (recall)
    is 0.0 when only P (T) is empty."""
    if np_ + nt == 0:
        return {"dice": 1.0, "precision": 1.0, "recall": 1.0}
    return {
        "dice": 2.0 * inter / (np_ + nt),
        "precision": inter / np_ if np_ else 0.0,
        "recall": inter / nt if nt else 0.0,
    }


# --- PGM (binary P5, 8- or 16-bit big-endian) ---------------------------


# One header token (width, height or maxval) after the magic: whitespace and
# '#' comments, which run to end of line and may follow a token directly,
# come before it; one whitespace byte after maxval ends the header.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]+)")


def write_pgm(path, values: np.ndarray, maxval: int = 65535) -> None:
    """Write a 2-D integer array as binary PGM (P5)."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"PGM payload must be 2-D, got shape {values.shape}")
    if not (0 < maxval < 65536):
        raise ValueError("maxval must be in [1, 65535]")
    if values.min() < 0 or values.max() > maxval:
        raise ValueError("PGM sample values out of range")
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        if maxval > 255:
            f.write(values.astype(">u2").tobytes())
        else:
            f.write(values.astype("u1").tobytes())


def read_pgm(path):
    """Read a binary PGM (P5): returns (values, maxval), values a 2-D uint8
    or uint16 array. A sample above maxval is an error; errors name the
    file."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    tokens, pos = [], 2
    for _ in range(3):
        m = _PGM_TOKEN.match(data, pos)
        if m is None or m.end() == len(data):
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(m[1])
        pos = m.end()
    if not all(t.isdigit() for t in tokens):
        raise ValueError(f"{path}: PGM header fields must be decimal "
                         f"integers, got {b' '.join(tokens)!r}")
    w, h, maxval = (int(t) for t in tokens)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM dims {w}x{h} must be at least 1x1")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} is outside [1, 65535]")
    if data[pos] == ord("#"):
        raise ValueError(f"{path}: PGM maxval must be followed by one "
                         "whitespace byte, not a comment")
    pos += 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    n = h * w
    payload = data[pos:pos + n * dtype.itemsize]
    if len(payload) != n * dtype.itemsize:
        raise ValueError(f"{path}: truncated PGM payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    if arr.max() > maxval:
        y, x = np.argwhere(arr > maxval)[0]
        raise ValueError(f"{path}: PGM sample {arr[y, x]} at pixel ({y},{x}) "
                         f"exceeds maxval {maxval}")
    return arr.astype(dtype.newbyteorder("=")), maxval


# --- Rate field export / stats -------------------------------------------


def _fmt(v) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(v))


def export_rate_field(rates: np.ndarray, prefix) -> None:
    """Write <prefix>.csv (full-precision row-major floats), <prefix>.pgm
    (16-bit, min-max scaled) and <prefix>.scale.txt (the scaling used)."""
    prefix = str(prefix)
    vals = np.asarray(rates).reshape(rates.shape[-2], rates.shape[-1])
    with open(prefix + ".csv", "w") as f:
        for row in vals:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    lo = float(vals.min())
    hi = float(vals.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((vals - lo) / span * 65535).astype(np.uint16)
    write_pgm(prefix + ".pgm", scaled, maxval=65535)
    with open(prefix + ".scale.txt", "w") as f:
        f.write(f"min={_fmt(lo)} max={_fmt(hi)}\n")


SMALL_OBJECT_RADIUS = 7.0


def rate_stats(rates, labels, meta) -> dict:
    """Mean learned rate over small-object, large-object and background
    pixels. Objects are split by their annotated radius at
    `SMALL_OBJECT_RADIUS`."""
    h, w = rates.shape[-2], rates.shape[-1]
    vals = np.asarray(rates).reshape(h, w)
    lab = np.asarray(labels).reshape(h, w)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    small = np.zeros((h, w), dtype=bool)
    large = np.zeros((h, w), dtype=bool)
    for cy, cx, radius in meta:
        mask = (np.hypot(yy - cy, xx - cx) <= radius) & (lab > 0)
        if radius <= SMALL_OBJECT_RADIUS:
            small |= mask
        else:
            large |= mask
    bg = lab == 0

    def mean_or_nan(mask):
        return float(vals[mask].mean()) if mask.any() else float("nan")

    return {
        "small": mean_or_nan(small),
        "large": mean_or_nan(large),
        "background": mean_or_nan(bg),
    }


# --- Corpus on disk --------------------------------------------------------


def write_samples(samples, directory) -> None:
    """Write img_XXXX.pgm (at each sample's maxval), lbl_XXXX.pgm (8-bit)
    pairs and meta.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "meta.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "cy", "cx", "radius"])
        for i, s in enumerate(samples):
            write_pgm(directory / f"img_{i:04d}.pgm", s.pixels, maxval=s.maxval)
            write_pgm(directory / f"lbl_{i:04d}.pgm", s.labels[0], maxval=255)
            for cy, cx, radius in s.meta:
                writer.writerow([i, _fmt(cy), _fmt(cx), _fmt(radius)])


def label_path(img_path):
    """The label file of corpus image img_<rest> (lbl_<rest>), or None for
    a name outside the corpus rule."""
    img_path = Path(img_path)
    if not img_path.name.startswith("img_"):
        return None
    return img_path.with_name("lbl_" + img_path.name[len("img_"):])


def decode(pixels, maxval, source):
    """The (1,1,H,W) float32 image of PGM `pixels` at `maxval`; errors
    name `source`."""
    try:
        image = preprocess(pixels.astype(np.float32) / maxval)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return image.reshape(1, 1, *pixels.shape)


def read_label(path, dims):
    """Read a label PGM as uint8 classes, checking it has the image's
    (H, W) `dims` and only the values 0 (background) and 1 (object)."""
    lbl, _ = read_pgm(path)
    if lbl.shape != dims:
        raise ValueError(f"{path}: label dims {lbl.shape} do not match "
                         f"image dims {dims}")
    if lbl.max() > 1:
        y, x = np.argwhere(lbl > 1)[0]
        raise ValueError(f"{path}: label value {lbl[y, x]} at pixel ({y},{x}) "
                         "is not 0 or 1")
    return lbl


def image_index(path) -> int:
    """The sample index in a corpus image name, img_<digits>.pgm."""
    m = re.fullmatch(r"img_([0-9]+)\.pgm", Path(path).name)
    if m is None:
        raise ValueError(f"{path}: corpus image names must be img_<digits>.pgm")
    return int(m.group(1))


def read_meta(path) -> dict:
    """Parse a corpus meta.csv into {index: [(cy, cx, radius), ...]}.
    Errors name the file and the line."""
    meta = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = {"index", "cy", "cx", "radius"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}:1: missing column(s) "
                             f"{', '.join(sorted(missing))}")
        for row in reader:
            try:
                meta.setdefault(int(row["index"]), []).append(
                    (float(row["cy"]), float(row["cx"]), float(row["radius"])))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return meta


def load_image_dir(path) -> list:
    """Load img_*.pgm / lbl_*.pgm pairs (plus meta.csv when present) as
    preprocessed samples, all of one image size. Errors name the offending
    file."""
    path = Path(path)
    imgs = sorted(path.glob("img_*.pgm"))
    if not imgs:
        raise ValueError(f"{path}: no img_*.pgm files found")
    meta_path = path / "meta.csv"
    meta_by_index = read_meta(meta_path) if meta_path.exists() else {}

    samples, path_of = [], {}
    for img_path in imgs:
        idx = image_index(img_path)
        if idx in path_of:
            raise ValueError(f"{img_path}: sample index {idx} is also that of "
                             f"{path_of[idx]}")
        path_of[idx] = img_path
        lbl_path = label_path(img_path)
        if not lbl_path.exists():
            raise ValueError(f"{img_path}: missing label file {lbl_path.name}")
        pixels, maxval = read_pgm(img_path)
        image = decode(pixels, maxval, img_path)
        if samples and pixels.shape != samples[0].pixels.shape:
            raise ValueError(f"{img_path}: image dims {pixels.shape} differ "
                             f"from {samples[0].pixels.shape} of {imgs[0].name}")
        lbl = read_label(lbl_path, pixels.shape)
        samples.append(SegmentationSample(
            image,
            lbl.reshape(1, *lbl.shape),
            meta_by_index.get(idx, []),
            pixels,
            maxval,
        ))
    return samples
