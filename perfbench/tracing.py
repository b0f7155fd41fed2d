"""Outside-in span tracing of the ascnet package.

`Tracer.installed()` replaces every public function of `convops`, `data`,
`models`, `tensor` and `training` (and `tensor.Adam.step`) by a wrapper
that records a span, then restores the originals. The program's modules
call each other through module attributes, so the wrappers see every
call between layers without any edit to the program.

A span has a name, start and end (`time.perf_counter` seconds), a parent
span id (-1 at top level), a step id and, for some spans, shape facts.
The tracer keeps them in memory as parallel lists indexed by span id and
writes them out with `write_jsonl`.

Steps: inside `training.train`, every call to `models.model_forward` opens
a synthetic `training.step` span that runs until the next step starts or
`train` returns, so a step's spans (forward, loss, backward, Adam) share
its id. A top-level `training.evaluate` call is one step (one image).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

from ascnet import convops, data, models, tensor, training

STEP_SPAN = "training.step"
TRAIN = "training.train"
EVALUATE = "training.evaluate"
FORWARD = "models.model_forward"

# Span name -> short op name used in per-layer metric names.
CONV_OPS = {
    "convops.asc_conv_forward": "asc_fwd",
    "convops.asc_conv_backward": "asc_bwd",
    "convops.conv_classic_forward": "classic_fwd",
    "convops.conv_classic_backward": "classic_bwd",
    "convops.conv_dilated_forward": "dilated_fwd",
    "convops.conv_dilated_backward": "dilated_bwd",
}
PLAN = "convops.build_sampling_plan"
RATE_STATS_SPAN = "perfbench.plan_properties"
RATE_SAMPLE_EVERY = 4   # one plan in this many gives the rate-field statistics
RATE_SAMPLES = 64       # at most this many plans are sampled
CONV_SHAPES = {
    "asc_fwd": ("1x8", "8x8", "8x2", "1x32", "32x32", "32x2"),
    "asc_bwd": ("1x8", "8x8", "8x2"),
    "classic_fwd": ("1x8", "8x4", "4x1"),
    "classic_bwd": ("1x8", "8x4", "4x1"),
    "dilated_fwd": ("1x8", "8x8", "8x2"),
    "dilated_bwd": ("1x8", "8x8", "8x2"),
}


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.steps = [], []
        self.info = {}                 # span id -> shape facts from a hook
        self.plans = 0                 # sampling plans built so far
        self.plan_stats = []           # `plan_properties` of every RATE_SAMPLE_EVERY-th plan
        self.forward_bytes = {}        # model_forward span id -> bytes its children returned
        self._stack = []               # ids of open spans
        self._forward = None           # id of the outermost open model_forward
        self.step = -1

    # --- span bookkeeping -------------------------------------------------

    def _push(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _open(self, name):
        stack = self._stack
        top = self.names[stack[-1]] if stack else None
        if name == FORWARD and top in (TRAIN, STEP_SPAN):
            if top == STEP_SPAN:
                self._close(stack[-1])
            self.step += 1
            self._push(STEP_SPAN)
        elif name == EVALUATE and top is None:
            self.step += 1
        sid = self._push(name)
        if name == FORWARD and self._forward is None:
            self._forward = sid
            self.forward_bytes[sid] = 0
        return sid

    def _close(self, sid):
        """End span `sid` and any span still open inside it (a step span
        left open when `train` returns)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == sid:
                break
        if sid == self._forward:
            self._forward = None

    def _held_by_forward(self, nbytes):
        if self._forward is not None:
            self.forward_bytes[self._forward] += nbytes

    # --- hooks: cheap facts taken from arguments and results ---------------

    def _conv_hook(self, sid, args, result):
        x, layer = args[0], args[1]
        cache_bytes = 0
        if self.names[sid].endswith("_forward"):
            y, cache = result if isinstance(result, tuple) else (result, None)
            if cache is not None:          # (plan, corners, sampled); plan counted once
                cache_bytes = cache[1].nbytes + cache[2].nbytes
            self._held_by_forward(y.nbytes + cache_bytes)
        self.info[sid] = (layer.in_channels, layer.out_channels,
                          x.shape[2] * x.shape[3], x.dtype.itemsize, cache_bytes)

    def _plan_hook(self, sid, args, result):
        if self.plans % RATE_SAMPLE_EVERY == 0 and len(self.plan_stats) < RATE_SAMPLES:
            # A span of its own keeps this cost out of the program's spans.
            stats_sid = self._open(RATE_STATS_SPAN)
            try:
                self.plan_stats.append(plan_properties(result))
            finally:
                self._close(stats_sid)
        self.plans += 1
        self.info[sid] = (result.idx.shape[-1], result.weight.dtype.itemsize)
        self._held_by_forward(result.rates.nbytes + result.idx.nbytes
                              + result.weight.nbytes + result.dweight_drate.nbytes)

    def _relu_hook(self, sid, args, result):
        self._held_by_forward(result.nbytes)

    # --- installation -----------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(sid, args, result)
            return result

        return traced

    @staticmethod
    def _targets():
        for mod in (convops, data, models, tensor, training):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                yield mod, attr, f"{short}.{attr}"
        yield tensor.Adam, "step", "tensor.Adam.step"

    @contextmanager
    def installed(self):
        hooks = {PLAN: self._plan_hook, "tensor.relu": self._relu_hook}
        hooks.update({name: self._conv_hook for name in CONV_OPS})
        saved = []
        try:
            for owner, attr, name in self._targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hooks.get(name)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for sid, name in enumerate(self.names):
                f.write(json.dumps({
                    "id": sid, "name": name, "start": self.starts[sid],
                    "end": self.ends[sid], "parent": self.parents[sid],
                    "step": self.steps[sid], "info": self.info.get(sid)}) + "\n")


# --- analysis -----------------------------------------------------------------


def self_times(tracer):
    """Per-span (duration, self time) arrays in seconds; self time is the
    duration minus the part covered by direct children."""
    dur = np.subtract(tracer.ends, tracer.starts)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur, dur - child


def step_roots(tracer):
    """Ids of the spans that delimit one step: `training.step` spans, or
    top-level `training.evaluate` spans (one per image)."""
    return [sid for sid, (name, parent) in enumerate(zip(tracer.names, tracer.parents))
            if name == STEP_SPAN or (name == EVALUATE and parent == -1)]


def under_roots(tracer, roots):
    """Boolean mask of the spans that are a step root or lie inside one."""
    inside = np.zeros(len(tracer.names), dtype=bool)
    inside[roots] = True
    for sid, parent in enumerate(tracer.parents):   # parents precede children
        if parent >= 0 and inside[parent]:
            inside[sid] = True
    return inside


def self_time_table(tracer):
    """Per-step self time and calls of every span name inside a step.

    Returns (rows, steps, mean step duration in s); rows are
    (name, self s per step, calls per step) sorted by self time. The self
    times of all rows add up to the mean step duration.
    """
    roots = step_roots(tracer)
    if not roots:
        return [], 0, 0.0
    dur, self_t = self_times(tracer)
    inside = under_roots(tracer, roots)
    totals, calls = {}, {}
    for name, ins, st in zip(tracer.names, inside, self_t):
        if ins:
            totals[name] = totals.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
    steps = len(roots)
    rows = sorted(((name, totals[name] / steps, calls[name] / steps)
                   for name in totals), key=lambda r: -r[1])
    return rows, steps, float(dur[roots].mean())


# Computed work per call, from array shapes: (flop, bytes read or written).
# C = in channels, O = out channels, N = pixels, b = bytes per element.
# Adaptive forward: gather 4 corners for 9 taps, weight and sum them, then
# the (O, 9C) x (9C, N) contraction. Integer convs: padded copy, 9-tap
# column gather and the same contraction. Backward adds the weight and
# input contractions, and for the adaptive op the corner scatter and the
# rate derivative. The plan count is an estimate of ~25 elementwise
# operations per (tap, corner, pixel).
def _computed(op, info):
    c, o, n, b = info[:4]
    if op == "asc_fwd":
        return 72 * c * n + 18 * o * c * n + o * n, b * (46 * c * n + o * n) + 36 * n * (8 + b)
    if op == "asc_bwd":
        return (36 * o * c * n + o * n + 162 * c * n,
                b * (o * n + 100 * c * n + n) + 8 * c * n + 36 * n * (8 + 2 * b))
    if op.endswith("_fwd"):
        return 18 * o * c * n + o * n, b * (20 * c * n + o * n)
    return 36 * o * c * n + o * n + 9 * c * n, b * (40 * c * n + o * n)


def _plan_computed(info):
    n, b = info
    return 25 * 36 * n, 36 * n * (8 + 2 * b) + n * b


def plan_properties(plan) -> dict:
    """Counts over one sampling plan: rate-field facts per pixel, taps whose
    read is interpolated (a corner weight strictly between 0 and 1), corner
    reads with a non-zero tent weight, and corner reads that fall off the
    image (the plan clips their index and zeroes their weight)."""
    r, w = plan.rates, plan.weight
    h, wd = plan.height, plan.width
    yy, xx = np.divmod(np.arange(r.size), wd)
    yy, xx = yy.astype(r.dtype), xx.astype(r.dtype)
    off = 0
    for dy, dx in convops.TAP_OFFSETS:
        y0, x0 = np.floor(yy + r * dy), np.floor(xx + r * dx)
        for iy in (0, 1):
            for ix in (0, 1):
                off += int(((y0 + iy < 0) | (y0 + iy >= h)
                            | (x0 + ix < 0) | (x0 + ix >= wd)).sum())
    return {"pixels": r.size, "min": float(r.min()), "max": float(r.max()),
            "sum": float(r.sum(dtype=np.float64)), "zero": int((r == 0).sum()),
            "integer": int((r == np.floor(r)).sum()),
            "interpolated_taps": int(((w > 0) & (w < 1)).any(axis=1).sum()),
            "useful_reads": int(np.count_nonzero(w)), "offimage_reads": off}


def rate_metrics(stats) -> dict:
    """Rate-field metrics over the sampled plans' `plan_properties`."""
    keys = ("rates.min", "rates.mean", "rates.max", "rates.zero_share",
            "rates.integer_share", "rates.fractional_tap_share",
            "rates.offimage_read_share", "convops.asc.useful_corner_share")
    if not stats:
        return dict.fromkeys(keys, 0.0)
    n = sum(s["pixels"] for s in stats)

    def total(key):
        return sum(s[key] for s in stats)

    values = (min(s["min"] for s in stats), total("sum") / n, max(s["max"] for s in stats),
              total("zero") / n, total("integer") / n, total("interpolated_taps") / (9 * n),
              total("offimage_reads") / (36 * n), total("useful_reads") / (36 * n))
    return dict(zip(keys, values))


def _median_ms(values):
    return float(np.median(values)) * 1e3 if values else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from the spans of the traced phase (spans inside
    a step) and of the traced set-up (the `data.*` and checkpoint spans)."""
    dur, self_t = self_times(tracer)
    roots = step_roots(tracer)
    steps = max(1, len(roots))
    inside = under_roots(tracer, roots)

    self_sum, dur_sum, calls = {}, {}, {}
    per_call = {}                 # (op, shape) -> self times of single calls
    work = {}                     # op -> [flop, bytes]
    asc_cache = 0
    forward_bytes = []
    setup_dur = {}                # spans outside every step: the set-up
    for sid, (name, ins, d, st) in enumerate(zip(tracer.names, inside, dur, self_t)):
        if not ins:
            setup_dur.setdefault(name, []).append(d)
            continue
        self_sum[name] = self_sum.get(name, 0.0) + st
        dur_sum[name] = dur_sum.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        op = CONV_OPS.get(name)
        if op is not None:
            info = tracer.info[sid]
            per_call.setdefault((op, f"{info[0]}x{info[1]}"), []).append(st)
            flop, nbytes = _computed(op, info)
            if op == "asc_fwd":
                asc_cache += info[4]
        elif name == PLAN:
            op = "plan"
            per_call.setdefault(("plan", ""), []).append(st)
            flop, nbytes = _plan_computed(tracer.info[sid])
        elif name == FORWARD and sid in tracer.forward_bytes:
            forward_bytes.append(tracer.forward_bytes[sid])
            continue
        else:
            continue
        acc = work.setdefault(op, [0, 0])
        acc[0] += flop
        acc[1] += nbytes

    m = {}
    for op, shapes in CONV_SHAPES.items():
        for shape in shapes:
            m[f"convops.{op}.{shape}.ms"] = _median_ms(per_call.get((op, shape), []))
    m["convops.plan.ms"] = _median_ms(per_call.get(("plan", ""), []))
    for name, op in list(CONV_OPS.items()) + [(PLAN, "plan")]:
        flop, nbytes = work.get(op, (0, 0))
        m[f"convops.{op}.ms_per_step"] = self_sum.get(name, 0.0) / steps * 1e3
        m[f"convops.{op}.calls_per_step"] = calls.get(name, 0) / steps
        m[f"convops.{op}.gflop"] = flop / steps / 1e9
        m[f"convops.{op}.computed_mb"] = nbytes / steps / 1e6
    m["convops.asc.cache_mb"] = asc_cache / steps / 1e6

    def per_step_ms(table, *names):
        return sum(table.get(n, 0.0) for n in names) / steps * 1e3

    m["models.forward.self_ms"] = per_step_ms(self_sum, FORWARD)
    m["models.backward.self_ms"] = per_step_ms(self_sum, "models.model_backward")
    m["models.ratenet_fwd.ms"] = per_step_ms(dur_sum, "models.rate_network_forward")
    m["models.ratenet_bwd.ms"] = per_step_ms(dur_sum, "models.rate_network_backward")
    m["models.cache_mb"] = float(np.mean(forward_bytes)) / 1e6 if forward_bytes else 0.0
    m["tensor.xent.ms"] = per_step_ms(dur_sum, "tensor.softmax_cross_entropy")
    m["tensor.adam.ms"] = per_step_ms(dur_sum, "tensor.Adam.step")
    m["tensor.relu.ms"] = per_step_ms(dur_sum, "tensor.relu", "tensor.relu_backward")
    m["training.step.self_ms"] = per_step_ms(self_sum, STEP_SPAN)
    m["training.evaluate.self_ms"] = per_step_ms(self_sum, EVALUATE)

    m["tensor.load_tensors.ms"] = _median_ms(setup_dur.get("tensor.load_tensors", []))
    for name in ("data.generate_synth", "data.write_samples", "data.load_image_dir"):
        m[f"{name}.s"] = sum(setup_dur.get(name, []))
    m.update(rate_metrics(tracer.plan_stats))
    return m
