"""The benchmark's workloads: set-up, a closed timed loop through the
program's public API, and the end-of-run checks.

Every workload is closed-loop with one client and a batch of one: the
next training step or image starts when the previous one has returned.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from pathlib import Path
from dataclasses import dataclass, field

import numpy as np

from ascnet import data, models, tensor, training

import benchstats
import checks
import tracing

SETUP_REPS = 7          # timed set-ups per untraced run; setup_s is their median
TRACE_SLICE = 2.0       # a traced run alternates untraced and traced slices this long
CHUNK_SECONDS = 1.0     # later `training.train` calls last about this long
LOSS_WINDOW = 20        # steps averaged at each end of the first training call
# The eval model's rate field: the rate network's last layer is He-drawn,
# then scaled and offset on the first RATE_CAL_IMAGES images so the field
# has mean RATE_MEAN and RATE_ZERO_SHARE of its pixels at 0. Of the two
# signs of the draw, the one whose maximum lies nearer RATE_MAX is kept.
RATE_MEAN = 1.7
RATE_ZERO_SHARE = 0.002
RATE_MAX = 4.6
RATE_CAL_IMAGES = 8

# One timed set-up in a fresh interpreter: the import of numpy and ascnet,
# then `setup`. Prints [set-up seconds, corpus-write seconds].
SETUP_PROBE = """
import time
t = time.perf_counter()
import numpy, ascnet
imported = time.perf_counter() - t
import json, sys
from pathlib import Path
import workloads
wl = workloads.WORKLOADS[sys.argv[1]]
secs, write_s, _, _ = workloads.setup(wl, int(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps([imported + secs, write_s]))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    split: str          # corpus split the workload reads back
    warmup: int         # steps or images run before latencies are kept
    loss_steps: int = 0  # length of the first `train` call (0 for eval)

    @property
    def trains(self):
        return self.loss_steps > 0


WORKLOADS = {
    w.name: w for w in (
        Workload("train-ascnet7", models.ASCNET7, "train", warmup=2, loss_steps=100),
        Workload("train-dilated7", models.DILATED7, "train", warmup=2, loss_steps=300),
        Workload("eval-ascnet14", models.ASCNET14, "test", warmup=1),
    )
}


@dataclass
class Phase:
    """What one timed loop produced."""
    latencies: list = field(default_factory=list)   # seconds per step / image
    losses: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def extend(self, other):
        self.latencies += other.latencies
        self.losses += other.losses
        self.attempted += other.attempted
        self.failed += other.failed


# --- set-up -------------------------------------------------------------------


def draw_rate_network(ratenet, rng, images):
    """Draw the rate network's last layer so the rate field on `images`
    has mean RATE_MEAN, a RATE_ZERO_SHARE share of zeros and, of the two
    signs, the maximum nearer RATE_MAX."""
    last = ratenet.layers[-1]
    last.weights[...] = tensor.he_init(rng, last.weights.shape)
    last.bias[...] = 0.0
    pre = np.concatenate([
        models.rate_network_forward(im, ratenet, return_cache=True)[1]["preacts"][-1].ravel()
        for im in images]).astype(np.float64)
    fits = []                       # (distance of the max from RATE_MAX, weight scale, bias)
    for sign in (1.0, -1.0):
        z = sign * pre
        lo = np.quantile(z, RATE_ZERO_SHARE)
        scale = RATE_MEAN / (z.mean() - lo)
        fits.append((abs(scale * (z.max() - lo) - RATE_MAX), sign * scale, -scale * lo))
    _, scale, bias = min(fits)
    last.weights *= scale
    last.bias[...] = bias


def build_model(wl, seed, samples, directory):
    spec = models.ModelSpec(wl.variant)
    rng = tensor.make_rng(seed)
    model = models.build_model(spec, rng)
    if wl.trains:
        return model
    draw_rate_network(model.ratenet, rng,
                      [s.image for s in samples[:RATE_CAL_IMAGES]])
    path = directory / "model.asct"
    models.save_checkpoint(model, path)
    return models.load_checkpoint(path)


def setup(wl, seed, directory):
    """One set-up: corpus generation, write and read-back of the workload's
    split, model build (and checkpoint round trip for eval).

    Returns (set-up seconds, write seconds, samples, model). The corpus
    write is timed apart and left out of the set-up seconds: it creates
    a file per image and label, and on the measuring VM the kernel time of
    creating 500 files varied from 0.05 to 0.4 s for the same bytes.
    """
    t0 = time.perf_counter()
    train_set, test_set = data.generate_synth(data.SynthConfig(seed=seed))
    split = train_set if wl.split == "train" else test_set
    del train_set, test_set
    t1 = time.perf_counter()
    data.write_samples(split, directory / wl.split)
    del split                   # only the read-back corpus stays alive
    t2 = time.perf_counter()
    samples = data.load_image_dir(directory / wl.split)
    model = build_model(wl, seed, samples, directory)
    return (t1 - t0) + (time.perf_counter() - t2), t2 - t1, samples, model


class SetupProbes:
    """Timed set-ups, each in a fresh interpreter, spread evenly over the
    timed loop. The machine's speed drifts by tens of percent over seconds,
    so set-ups run back to back would see one moment of it, while the loop
    sees the whole run. A child process leaves the workload process's
    memory, and so `peak_rss_mb`, untouched."""

    def __init__(self, wl, seed, work_dir, src, count=SETUP_REPS):
        self.args = [wl.name, str(seed)]
        self.work_dir, self.count = work_dir, count
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), str(Path(__file__).resolve().parent),
                        self.env.get("PYTHONPATH")) if p)
        self.due = deque()
        self.setup_s, self.write_s = [], []

    def start(self, seconds):
        now = time.perf_counter()
        self.due = deque(now + (k + 0.5) * seconds / self.count for k in range(self.count))

    def _run_one(self):
        directory = self.work_dir / f"probe{len(self.setup_s)}"
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, *self.args, str(directory)],
                             env=self.env, capture_output=True, text=True,
                             check=True, timeout=120)
        shutil.rmtree(directory)
        secs, write_s = json.loads(out.stdout.strip().splitlines()[-1])
        self.setup_s.append(secs)
        self.write_s.append(write_s)

    def poll(self) -> float:
        """Run the set-ups now due; returns the seconds they took."""
        t0 = time.perf_counter()
        while self.due and self.due[0] <= time.perf_counter():
            self.due.popleft()
            self._run_one()
        return time.perf_counter() - t0

    def finish(self):
        while self.due:
            self.due.popleft()
            self._run_one()


def no_pause() -> float:
    return 0.0


# --- timed loops -------------------------------------------------------------


def train_phase(model, samples, seed, seconds, first_steps, pause) -> Phase:
    """`training.train` calls back to back for `seconds`. The first call has
    `first_steps` steps (its losses are the loss window); later calls last
    about CHUNK_SECONDS. Step latencies come from the program's own
    per-step timestamps (log_every=1, deterministic=False). `pause` runs
    between calls; the seconds it returns extend the loop."""
    out = Phase()
    deadline = time.perf_counter() + seconds
    steps, call = first_steps, 0
    while True:
        cfg = training.TrainConfig(iterations=steps, seed=seed + call,
                                   log_every=1, deterministic=False)
        try:
            model, report = training.train(model, samples, cfg)
        except training.TrainingDiverged as exc:
            out.attempted += exc.iteration
            out.failed += 1
            break
        stamps = [0.0] + [sec for _, _, sec in report.records]
        out.latencies.extend(np.diff(stamps).tolist())
        out.losses.extend(loss for _, loss, _ in report.records)
        out.attempted += steps
        call += 1
        deadline += pause()
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        per_step = float(np.mean(out.latencies[-steps:]))
        steps = max(1, min(math.ceil(left / per_step),
                           math.ceil(CHUNK_SECONDS / per_step)))
    return out


@contextmanager
def logit_guard(phase):
    """Count images whose logits are not all finite. `evaluate` does not
    return logits, so this observes `models.model_forward` (one isfinite
    per image)."""
    forward = models.model_forward

    def guarded(*args, **kwargs):
        out = forward(*args, **kwargs)
        if not np.isfinite(out[0]).all():
            phase.failed += 1
        return out

    models.model_forward = guarded
    try:
        yield
    finally:
        models.model_forward = forward


def eval_phase(model, samples, seconds, pause) -> Phase:
    """One `training.evaluate` call per test image for `seconds`. `pause`
    runs between images; the seconds it returns extend the loop."""
    out = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    with logit_guard(out):
        while time.perf_counter() < deadline:
            sample = samples[i % len(samples)]
            t0 = time.perf_counter()
            training.evaluate(model, [sample])
            out.latencies.append(time.perf_counter() - t0)
            i += 1
            deadline += pause()
    out.attempted = len(out.latencies)
    return out


def timed_phase(wl, model, samples, seed, seconds, first_steps, pause=no_pause) -> Phase:
    if wl.trains:
        return train_phase(model, samples, seed, seconds, first_steps, pause)
    return eval_phase(model, samples, seconds, pause)


# --- checks -------------------------------------------------------------------


def run_checks(wl, model, samples, phase, seed):
    """End-of-run checks on the workload's own model and activations."""
    rng = tensor.make_rng(seed + 7919)
    image = samples[0].image
    _, rates, cache = models.model_forward(model, image, return_cache=True)
    results = []
    if model.is_adaptive:
        x1, layer1 = cache["inputs"][1], model.layers[1]
        results += [
            checks.asc_adjoint(x1, layer1, rates, rng),
            checks.asc_rate_gradient(x1, layer1, rates, rng),
            checks.asc_vs_bilinear(x1, rates, rng),
            checks.rate_one_is_classic(x1, layer1),
        ]
        results += [checks.int_adjoint(x, layer, rng) for x, layer in
                    zip(cache["ratenet"]["inputs"], model.ratenet.layers)]
    else:
        results += [checks.int_adjoint(x, layer, rng) for x, layer in
                    zip(cache["inputs"], model.layers)]
        results.append(checks.rate_one_is_classic(cache["inputs"][1], model.layers[1]))
    del cache
    if wl.trains:
        results.append(checks.learning(phase.losses[:wl.loss_steps], LOSS_WINDOW))
    else:
        results.append(checks.logits_vs_f64(model, image))
    return results


# --- one run ------------------------------------------------------------------


def traced_phases(wl, model, samples, seed, seconds, tracer):
    """The first slice holds the warm-up and the loss window. After it,
    untraced and traced slices alternate, so both see the same machine
    state and the same stretch of training. Returns (head, untraced,
    traced) phases."""
    deadline = time.perf_counter() + seconds
    head = timed_phase(wl, model, samples, seed, TRACE_SLICE, wl.loss_steps)
    untraced, traced = Phase(), Phase()
    part = 1
    while part <= 2 or time.perf_counter() < deadline:
        is_traced = part % 2 == 0
        with tracer.installed() if is_traced else nullcontext():
            piece = timed_phase(wl, model, samples, seed + part, TRACE_SLICE, 1)
        (traced if is_traced else untraced).extend(piece)
        part += 1
    return head, untraced, traced


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _throughput(latencies):
    return len(latencies) / sum(latencies)


def run(name, seed, seconds, trace, root):
    """One benchmark run. Returns (record, tracer or None); the record's
    "result" is the object the command prints last, metric values still
    bare numbers."""
    wl = WORKLOADS[name]
    src = root / "src"
    work_dir = root / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "env": benchstats.environment(np)}
    probes = SetupProbes(wl, seed, work_dir, src)
    try:
        # The workload's own set-up, in this process, gives the samples and
        # model; `setup_s` comes from the probes.
        with tracer.installed() if tracer is not None else nullcontext():
            _, _, samples, model = setup(wl, seed, work_dir / "main")
        shutil.rmtree(work_dir / "main")
        setup_rss_mb = _peak_rss_mb()

        if tracer is None:
            probes.start(seconds)
            head = timed_phase(wl, model, samples, seed, seconds, wl.loss_steps, probes.poll)
            peak_rss_mb = _peak_rss_mb()
            probes.finish()
            phases, timed = (head,), head.latencies[wl.warmup:]
        else:
            head, untraced, traced = traced_phases(wl, model, samples, seed, seconds, tracer)
            phases, timed = (head, untraced, traced), untraced.latencies
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = run_checks(wl, model, samples, head, seed)
    attempted = sum(p.attempted for p in phases) + len(results)
    failed = sum(p.failed for p in phases) + sum(not r.ok for r in results)
    losses = head.losses[:wl.loss_steps]
    loss_final = float(np.mean(losses[-LOSS_WINDOW:])) if losses else 0.0

    record.update({
        "samples": len(timed),
        "setup_s_reps": probes.setup_s,
        "write_s_reps": probes.write_s,
        "peak_rss_mb_after_setup": setup_rss_mb,
        "loss_final": loss_final,
        "checks": [vars(r) for r in results],
    })
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer)
        rows, steps, _ = tracing.self_time_table(tracer)
        traced_tp = _throughput(traced.latencies)
        untraced_tp = _throughput(timed)
        self_sum = sum(r[1] for r in rows)
        step_s = float(np.mean(traced.latencies))
        metrics.update({
            "loss_final": loss_final,
            "trace.steps": steps,
            "trace.spans_per_step": sum(r[2] for r in rows),
            "trace.step_ms": step_s * 1e3,
            "trace.self_sum_ms": self_sum * 1e3,
            "trace.accounted_share": self_sum / step_s,
            "trace.throughput": traced_tp,
            "trace.untraced_throughput": untraced_tp,
            "trace.overhead_share": 1.0 - traced_tp / untraced_tp,
        })
        record["self_time_table"] = [
            {"name": n, "self_ms_per_step": s * 1e3, "calls_per_step": c,
             "share": s / self_sum} for n, s, c in rows]
    else:
        metrics = {
            "throughput": _throughput(timed),
            "latency_ms_p50": float(np.percentile(timed, 50)) * 1e3,
            "latency_ms_p90": float(np.percentile(timed, 90)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": float(np.median(probes.setup_s)),
        }
    record["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return record, tracer
