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
    seed: int = 0
    deterministic: bool = False
    log_every: int = 100

    def __post_init__(self):
        for name, least in (("iterations", 1), ("seed", 0), ("log_every", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name}: {value!r} must be >= {least}")
        if not 0 < self.lr < float("inf"):
            raise ValueError(f"lr: {self.lr!r} must be finite and > 0")


@dataclass
class TrainReport:
    records: list = field(default_factory=list)  # (iteration, loss, seconds)

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
    for i, s in enumerate(samples):
        model.spec.check_input(s.image.shape, f"sample {i}", "the model")

    params = models.param_dict(model)
    opt = tensor.Adam(params, cfg.lr)
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

    def summary(self) -> str:
        """The foreground means as three `key=value` lines."""
        return (f"dice={self.dice:.4f}\nprecision={self.precision:.4f}\n"
                f"recall={self.recall:.4f}")


def evaluate(model, samples, pooled: bool = False) -> EvalResult:
    """Argmax segmentation metrics. Per-image means by default; with
    pooled=True counts are pooled over the whole dataset instead."""
    if not samples:
        raise ValueError("empty evaluation set")
    for i, s in enumerate(samples):
        model.spec.check_input(s.image.shape, f"sample {i}", "the model")
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
    status: str  # PASS | FAIL


@dataclass
class GradCheckReport:
    target: str
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)


# The central-difference step of every gradient check.
FD_STEP = 1e-4


def central_diff(f, arr):
    """Central finite differences of scalar f() w.r.t. every entry of arr
    (perturbed in place and restored)."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def max_rel_err(analytic, numeric) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# Finite differences are not trusted this close to a tent-kernel kink.
KINK_MARGIN = 1e-3


def _near_kink(r):
    return np.abs(r - np.round(r)) < KINK_MARGIN


def offkink_rates(rng, shape):
    """Rates uniform in [0.3, 2.3], nudged away from integer values so the
    bilinear tent kernel is differentiable at every sample offset."""
    r = rng.uniform(0.3, 2.3, size=shape)
    return np.where(_near_kink(r), r + 2 * KINK_MARGIN, r)


def _check_conv(kind, seed):
    """(loss, groups) of one layer through `conv_forward`/`conv_backward`,
    as training runs it; the loss rebuilds the sampling plan, so it sees
    rate changes. The adaptive layer's rates are drawn off-kink."""
    rng = tensor.make_rng(seed)
    x = rng.standard_normal((1, 2, 6, 6))
    layer = convops.ConvLayer(rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3),
                              kind, rate=2 if kind == convops.DILATED else 1)
    adaptive = kind == convops.ADAPTIVE
    rates = offkink_rates(rng, (1, 1, 6, 6)) if adaptive else None
    plan = lambda: convops.build_sampling_plan(rates, 6, 6) if adaptive else None
    g = rng.standard_normal((1, 3, 6, 6))
    loss = lambda: float((convops.conv_forward(x, layer, plan())[0] * g).sum())
    _, cache = convops.conv_forward(x, layer, plan(), return_cache=True)
    gx, gw, gb, gr = convops.conv_backward(x, layer, g, cache)
    groups = [("input", x, gx), ("weights", layer.weights, gw),
              ("bias", layer.bias, gb)]
    if adaptive:
        groups.append(("rates", rates, gr))
    return loss, groups


def _check_net(target, seed):
    """(loss, groups) of a reduced adaptive model's parameters: the rate
    network's under a loss on the rate field ("ratenet"), or all under
    cross-entropy."""
    rng = tensor.make_rng(seed)
    model = models.build_reduced_asc_model(2, seed=seed)
    # A random rate network exercises the rate path away from the all-ones
    # init, whose integer rates sit on tent-kernel kinks. It is redrawn while
    # a ReLU input or a positive rate lies within `KINK_MARGIN` of a kink.
    while True:
        for layer in model.ratenet.layers:
            layer.weights[...] = tensor.he_init(rng, layer.weights.shape, np.float64)
            layer.bias[...] = rng.standard_normal(layer.bias.shape) * 0.1
        model.ratenet.layers[-1].bias += 1.0
        image = rng.standard_normal((1, 1, 8, 8))
        logits, rates, cache = models.model_forward(model, image, return_cache=True)
        relu_inputs = cache["preacts"][:-1] + cache["ratenet"]["preacts"]
        if (min(np.abs(z).min() for z in relu_inputs) >= KINK_MARGIN
                and not _near_kink(rates[rates > 0]).any()):
            break

    if target == "ratenet":
        g = rng.standard_normal(rates.shape)
        loss = lambda: float((models.rate_network_forward(image, model.ratenet)
                              * g).sum())
        grads = models.rate_network_backward(model.ratenet, cache["ratenet"], g)
    else:
        labels = rng.integers(0, 2, size=(1, 8, 8))
        loss = lambda: tensor.softmax_cross_entropy(
            models.model_forward(model, image)[0], labels)[0]
        grad_logits = tensor.softmax_cross_entropy(logits, labels)[1]
        grads = models.model_backward(model, cache, grad_logits)
    return loss, [(name, arr, grads[name]) for name, arr in
                  models.param_dict(model).items() if name in grads]


# Gradient-check targets: the conv kind a one-layer target checks (None for
# the reduced-model targets) and the tolerance on its max relative error.
GRADCHECK_TARGETS = {
    "classic": (convops.CLASSIC, 1e-6),
    "dilated": (convops.DILATED, 1e-6),
    "asc": (convops.ADAPTIVE, 1e-4),
    "ratenet": (None, 1e-5),
    "model": (None, 1e-3),
}


def grad_check(target: str, seed: int = 0) -> GradCheckReport:
    """Compare hand-written adjoints against f64 central differences.

    targets: classic | dilated | asc | ratenet | model (a reduced-depth
    adaptive network including the rate-network parameters).
    """
    if target not in GRADCHECK_TARGETS:
        raise ValueError(f"unknown gradcheck target {target!r}")
    if seed < 0:
        raise ValueError(f"seed: {seed!r} must be >= 0")
    kind, tol = GRADCHECK_TARGETS[target]
    loss, groups = (_check_conv(kind, seed) if kind is not None
                    else _check_net(target, seed))
    entries = []
    for name, arr, analytic in groups:
        err = max_rel_err(analytic, central_diff(loss, arr))
        entries.append(GradCheckEntry(name, err, tol, "PASS" if err < tol else "FAIL"))
    return GradCheckReport(target, entries)
