"""End-to-end optimization loop, evaluation metrics driver, and the
finite-difference gradient-check harness for every hand-written adjoint."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import convops, data, models, tensor


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration, what):
        super().__init__(f"{what} became non-finite at iteration {iteration}")
        self.iteration = iteration


@dataclass
class TrainConfig:
    iterations: int = 2000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    deterministic: bool = False
    log_every: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


@dataclass
class TrainReport:
    records: list = field(default_factory=list)  # (iteration, loss, seconds)
    final_metrics: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("iter,loss,seconds\n")
            for it, loss, sec in self.records:
                f.write(f"{it},{loss!r},{sec:.3f}\n")


def train(model, samples, cfg: TrainConfig):
    """Batch-of-one Adam training with per-epoch shuffling from cfg.seed.

    In deterministic mode logged wall-clock is recorded as 0 so two runs
    with the same seed produce byte-identical reports. Raises
    `TrainingDiverged` when the loss or the rate field turns non-finite.
    """
    if not samples:
        raise ValueError("empty training set")
    for s in samples:
        if s.image.shape[2:] != (model.spec.height, model.spec.width):
            raise ValueError(
                f"sample dims {s.image.shape[2:]} do not match model "
                f"({model.spec.height},{model.spec.width})"
            )

    params = models.param_dict(model)
    opt = tensor.Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    shuffle_rng = tensor.make_rng(cfg.seed)
    order = shuffle_rng.permutation(len(samples))
    report = TrainReport()
    start = time.monotonic()

    for it in range(1, cfg.iterations + 1):
        pos = (it - 1) % len(samples)
        if pos == 0 and it > 1:
            order = shuffle_rng.permutation(len(samples))
        sample = samples[order[pos]]

        try:
            logits, rates, cache = models.model_forward(model, sample.image,
                                                        return_cache=True)
        except convops.NonFiniteRates:
            raise TrainingDiverged(it, "rate field") from None
        loss, grad_logits = tensor.softmax_cross_entropy(logits, sample.labels)
        if not np.isfinite(loss):
            raise TrainingDiverged(it, f"loss ({loss})")
        grads = models.model_backward(model, cache, grad_logits)
        opt.step(grads)

        if it % cfg.log_every == 0 or it == 1 or it == cfg.iterations:
            sec = 0.0 if cfg.deterministic else time.monotonic() - start
            report.records.append((it, loss, sec))
    return model, report


@dataclass
class EvalResult:
    per_class: dict          # class -> {"dice": ..., "precision": ..., "recall": ...}
    dice: float              # mean over foreground classes
    precision: float
    recall: float


def evaluate(model, samples, pooled: bool = False) -> EvalResult:
    """Argmax segmentation metrics. Per-image means by default; with
    pooled=True counts are pooled over the whole dataset instead."""
    if not samples:
        raise ValueError("empty evaluation set")
    num_classes = model.spec.num_classes
    counts = {c: [] for c in range(num_classes)}   # per image (|P&T|, |P|, |T|)
    for s in samples:
        logits, _ = models.model_forward(model, s.image)
        pred = logits[0].argmax(axis=0)
        lab = s.labels.reshape(pred.shape)
        for c in range(num_classes):
            counts[c].append(data.overlap_counts(pred == c, lab == c))

    per_class = {}
    for c, rows in counts.items():
        if pooled:
            per_class[c] = data.overlap_metrics(*(sum(col) for col in zip(*rows)))
        else:
            per_image = [data.overlap_metrics(*r) for r in rows]
            per_class[c] = {k: float(np.mean([m[k] for m in per_image]))
                            for k in per_image[0]}

    fg = range(1, num_classes)
    return EvalResult(
        per_class,
        float(np.mean([per_class[c]["dice"] for c in fg])),
        float(np.mean([per_class[c]["precision"] for c in fg])),
        float(np.mean([per_class[c]["recall"] for c in fg])),
    )


# --- Gradient checking -----------------------------------------------------


@dataclass
class GradCheckEntry:
    group: str
    max_rel_err: float
    tol: float
    status: str  # PASS | FAIL | SKIP


@dataclass
class GradCheckReport:
    target: str
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)


def central_diff(f, arr, h):
    """Central finite differences of scalar f() w.r.t. every entry of arr
    (perturbed in place and restored)."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def offkink_rates(rng, shape, lo=0.3, hi=2.3, margin=1e-3):
    """Rates uniform in [lo, hi], nudged away from integer values so the
    bilinear tent kernel is differentiable at every sample offset."""
    r = rng.uniform(lo, hi, size=shape)
    near = np.abs(r - np.round(r)) < margin
    r = np.where(near, r + 2 * margin, r)
    return r


def is_kink_rates(rates, margin=1e-3) -> bool:
    r = np.asarray(rates)
    return bool(np.any(np.abs(r - np.round(r)) < margin))


def _entry(group, analytic, numeric, tol):
    err = max_rel_err(analytic, numeric)
    return GradCheckEntry(group, err, tol, "PASS" if err < tol else "FAIL")


def _check_int_conv(kind, seed, h, tol):
    rng = tensor.make_rng(seed)
    x = rng.standard_normal((1, 2, 6, 6))
    # A classic layer ignores the rate.
    layer = convops.ConvLayer(rng.standard_normal((3, 2, 3, 3)),
                              rng.standard_normal(3), kind, rate=2)
    fwd = lambda: convops.conv_forward(x, layer)[0]
    g = rng.standard_normal(fwd().shape)
    loss = lambda: float((fwd() * g).sum())
    gx, gw, gb, _ = convops.conv_backward(x, layer, g)
    return [
        _entry("input", gx, central_diff(loss, x, h), tol),
        _entry("weights", gw, central_diff(loss, layer.weights, h), tol),
        _entry("bias", gb, central_diff(loss, layer.bias, h), tol),
    ]


def check_asc_gradients(x, layer, rates, h=1e-4, tol=1e-4):
    """All four adaptive-conv gradient groups against central differences.

    The rate group is SKIPped when any rate sits within 1e-3 of an integer:
    the tent kernel is not differentiable there and central differences
    straddle the kink.
    """
    rng = tensor.make_rng(12345)
    g = rng.standard_normal((1, layer.out_channels) + x.shape[2:])
    loss = lambda: float((convops.asc_conv_forward(x, layer, rates) * g).sum())
    gx, gw, gb, gr = convops.asc_conv_backward(x, layer, rates, g)
    entries = [
        _entry("input", gx, central_diff(loss, x, h), tol),
        _entry("weights", gw, central_diff(loss, layer.weights, h), tol),
        _entry("bias", gb, central_diff(loss, layer.bias, h), tol),
    ]
    if is_kink_rates(rates):
        entries.append(GradCheckEntry("rates", float("nan"), tol, "SKIP"))
    else:
        entries.append(_entry("rates", gr, central_diff(loss, rates, h), tol))
    return entries


def _check_asc(seed, h, tol, rates=None):
    rng = tensor.make_rng(seed)
    x = rng.standard_normal((1, 2, 6, 6))
    layer = convops.ConvLayer(rng.standard_normal((3, 2, 3, 3)),
                              rng.standard_normal(3), convops.ADAPTIVE)
    if rates is None:
        rates = offkink_rates(rng, (1, 1, 6, 6))
    return check_asc_gradients(x, layer, rates, h, tol)


def _check_ratenet(seed, h, tol):
    rng = tensor.make_rng(seed)
    image = rng.standard_normal((1, 1, 6, 6))
    net = models.RateNetwork([
        convops.ConvLayer(tensor.he_init(rng, (c, p, 3, 3), np.float64),
                          rng.standard_normal(c) * 0.1, convops.CLASSIC)
        for p, c in ((1, 8), (8, 4), (4, 1))
    ])
    g = rng.standard_normal((1, 1, 6, 6))

    def loss():
        return float((models.rate_network_forward(image, net) * g).sum())

    _, cache = models.rate_network_forward(image, net, return_cache=True)
    grads = models.rate_network_backward(net, cache, g)
    entries = []
    for j in range(3):
        layer = net.layers[j]
        for part, arr in (("weight", layer.weights), ("bias", layer.bias)):
            entries.append(_entry(
                f"layer{j}.{part}", grads[f"ratenet.layer{j}.{part}"],
                central_diff(loss, arr, h), tol,
            ))
    return entries


def _check_model(seed, h, tol):
    rng = tensor.make_rng(seed)
    model = models.build_reduced_asc_model(2, seed=seed)
    # Random rate network so the rate path is exercised away from the
    # all-ones init (whose exactly-integer rates sit on tent-kernel kinks).
    for layer in model.ratenet.layers:
        layer.weights[...] = tensor.he_init(rng, layer.weights.shape, np.float64)
        layer.bias[...] = rng.standard_normal(layer.bias.shape) * 0.1
    model.ratenet.layers[-1].bias += 1.0
    image = rng.standard_normal((1, 1, 8, 8))
    labels = rng.integers(0, model.spec.num_classes, size=(1, 8, 8))

    def loss():
        logits, _ = models.model_forward(model, image)
        return tensor.softmax_cross_entropy(logits, labels)[0]

    logits, _, cache = models.model_forward(model, image, return_cache=True)
    _, grad_logits = tensor.softmax_cross_entropy(logits, labels)
    grads = models.model_backward(model, cache, grad_logits)
    return [
        _entry(name, grads[name], central_diff(loss, arr, h), tol)
        for name, arr in models.param_dict(model).items()
    ]


# Gradient-check targets and their default tolerances.
GRADCHECK_TOLERANCES = {
    "classic": 1e-6,
    "dilated": 1e-6,
    "asc": 1e-4,
    "ratenet": 1e-5,
    "model": 1e-3,
}


def grad_check(target: str, seed: int = 0, h: float = 1e-4,
               tol: float | None = None, asc_rates=None) -> GradCheckReport:
    """Compare hand-written adjoints against f64 central differences.

    targets: classic | dilated | asc | ratenet | model (a reduced-depth
    adaptive network including the rate-network parameters).
    """
    if target not in GRADCHECK_TOLERANCES:
        raise ValueError(f"unknown gradcheck target {target!r}")
    if tol is None:
        tol = GRADCHECK_TOLERANCES[target]
    if target in ("classic", "dilated"):
        entries = _check_int_conv(target, seed, h, tol)
    elif target == "asc":
        entries = _check_asc(seed, h, tol, rates=asc_rates)
    elif target == "ratenet":
        entries = _check_ratenet(seed, h, tol)
    else:
        entries = _check_model(seed, h, tol)
    return GradCheckReport(target, entries)
