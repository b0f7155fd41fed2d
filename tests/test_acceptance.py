"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-7 share one set of full training runs (three architectures,
seeds 1-3, 2000 iterations each on the default 64x64 corpus), provided by
a module-scoped fixture that runs them in parallel worker processes.
Expect several minutes of wall clock on two cores.
"""

import multiprocessing
import os
import statistics
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from ascnet import convops, data, models, tensor, training
from ascnet.cli import main
from ascnet.convops import ConvLayer

SEEDS = (1, 2, 3)
ITERS = 2000
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {name}: {status} {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    report = training.grad_check("asc", seed=0)
    elapsed = time.monotonic() - start
    worst = max(e.max_rel_err for e in report.entries)
    groups = {e.group for e in report.entries}
    ok = (report.passed
          and groups == {"input", "weights", "bias", "rates"}
          and all(e.status == "PASS" for e in report.entries)
          and all(e.tol == 1e-4 for e in report.entries)
          and training.FD_STEP == 1e-4
          and elapsed < 60)
    _report(1, "gradient-fidelity",
            ok, f"(max_rel_err={worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_degeneracy_chain():
    start = time.monotonic()
    worst_dilated = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        h = w = int(rng.integers(5, 9))
        in_c = int(rng.integers(1, 3))
        out_c = int(rng.integers(1, 4))
        x = rng.standard_normal((1, in_c, h, w))
        adaptive = ConvLayer(rng.standard_normal((out_c, in_c, 3, 3)),
                             rng.standard_normal(out_c), convops.ADAPTIVE)
        classic = ConvLayer(adaptive.weights, adaptive.bias, convops.CLASSIC)
        ones = np.ones((1, 1, h, w))
        # Both forward forms: kept for a backward, and forward-only.
        for cached in (False, True):
            assert np.array_equal(
                convops.asc_conv_forward(x, adaptive, ones, return_cache=cached)[0],
                convops.conv_classic_forward(x, classic, cached)[0],
            ), f"seed {seed}: rate-1 adaptive differs from classic"
            for k in (2, 3):
                dilated = ConvLayer(adaptive.weights, adaptive.bias,
                                    convops.DILATED, rate=k)
                rates = np.full((1, 1, h, w), float(k))
                diff = np.abs(
                    convops.asc_conv_forward(x, adaptive, rates, return_cache=cached)[0]
                    - convops.conv_dilated_forward(x, dilated, cached)[0]
                ).max()
                worst_dilated = max(worst_dilated, diff)
    elapsed = time.monotonic() - start
    ok = worst_dilated < 1e-12 and elapsed < 10
    _report(2, "degeneracy-chain",
            ok, f"(max_dilated_diff={worst_dilated:.2e}, {elapsed:.1f}s)")


def test_criterion_3_partition_of_unity():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst_pu = 0.0
    for _ in range(10_000):
        p = (rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0))
        y0, x0 = int(np.floor(p[0])), int(np.floor(p[1]))
        total = sum(
            convops.bilinear_kernel((qy, qx), p)
            for qy in (y0, y0 + 1) for qx in (x0, x0 + 1)
        )
        worst_pu = max(worst_pu, abs(total - 1.0))

    worst_oracle = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = r.standard_normal((1, 1, 4, 4))
        layer = ConvLayer(r.standard_normal((1, 1, 3, 3)),
                          r.standard_normal(1), convops.ADAPTIVE)
        rates = r.uniform(0.0, 3.0, (1, 1, 4, 4))
        diff = np.abs(convops.asc_conv_forward(x, layer, rates)
                      - convops.oracle_asc_forward(x, layer, rates)).max()
        worst_oracle = max(worst_oracle, diff)
    elapsed = time.monotonic() - start
    ok = worst_pu < 1e-12 and worst_oracle < 1e-10 and elapsed < 5
    _report(3, "bilinear-partition-of-unity",
            ok, f"(pu={worst_pu:.2e}, oracle={worst_oracle:.2e}, {elapsed:.1f}s)")


def test_criterion_4_end_to_end_theta_gradients():
    start = time.monotonic()
    report = training.grad_check("model", seed=0)
    elapsed = time.monotonic() - start
    rate_groups = [e for e in report.entries if e.group.startswith("ratenet.")]
    worst = max(e.max_rel_err for e in report.entries)
    ok = (report.passed and len(rate_groups) == 6
          and all(e.status == "PASS" for e in report.entries)
          and all(e.tol == 1e-3 for e in report.entries)
          and training.FD_STEP == 1e-4
          and elapsed < 120)
    _report(4, "end-to-end-theta-gradients",
            ok, f"(max_rel_err={worst:.2e}, {elapsed:.1f}s)")


def _comparison_job(variant, seed):
    """Train one variant at one seed on the default corpus. Returns its
    test Dice and, for ascnet7, the mean rate inside small and large test
    disks. Module level, so that spawned workers can import it."""
    cfg = data.SynthConfig()
    train_set, test_set = data.generate_synth(cfg)
    spec = models.ModelSpec(variant, 2, cfg.height, cfg.width, 1)
    model, _ = training.train(
        models.build_model(spec, seed), train_set,
        training.TrainConfig(iterations=ITERS, lr=1e-3, seed=seed),
    )
    dice = training.evaluate(model, test_set).dice
    if variant != "ascnet7":
        return dice, None
    sums = {"small": [0.0, 0], "large": [0.0, 0]}
    for s in test_set:
        rates = models.rate_network_forward(s.image, model.ratenet)
        vals = rates.reshape(cfg.height, cfg.width)
        yy, xx = np.meshgrid(np.arange(cfg.height),
                             np.arange(cfg.width), indexing="ij")
        for cy, cx, radius in s.meta:
            mask = np.hypot(yy - cy, xx - cx) <= radius
            key = "small" if radius <= 7.0 else "large"
            sums[key][0] += float(vals[mask].sum())
            sums[key][1] += int(mask.sum())
    return dice, {k: v[0] / v[1] for k, v in sums.items()}


def _warnings_as_errors():
    """Worker initializer: a numpy overflow or invalid-value warning, or a
    deprecation that ascnet code triggers, fails the run, as pyproject's
    filters do in the test process, which spawned workers do not inherit."""
    warnings.simplefilter("error", RuntimeWarning)
    for category in (DeprecationWarning, FutureWarning):
        warnings.filterwarnings("error", category=category, module="ascnet")


@pytest.fixture(scope="module")
def comparison_runs():
    """Train classic7/dilated7/ascnet7 for each seed on the default corpus,
    one process per run. Each worker gets one BLAS thread, so the runs do
    not compete for cores; the thread variables are read when numpy loads,
    so they are set before the workers start and restored after."""
    # The longest runs go first, so that none of them starts last.
    jobs = [(v, seed) for v in ("ascnet7", "dilated7", "classic7") for seed in SEEDS]
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, dict.fromkeys(_BLAS_THREAD_VARS, "1")), \
            ProcessPoolExecutor(min(9, os.cpu_count()), mp_context=spawn,
                                initializer=_warnings_as_errors) as pool:
        futures = [pool.submit(_comparison_job, *job) for job in jobs]
        outcomes = [f.result() for f in futures]
    results = {v: [] for v, _ in jobs}
    rate_means = []
    for (variant, seed), (dice, means) in zip(jobs, outcomes):
        print(f"\n{variant} seed {seed}: dice={dice!r} rate_means={means!r}")
        results[variant].append(dice)
        if means is not None:
            rate_means.append(means)
    return results, rate_means


def test_criterion_5_learning_smoke(comparison_runs):
    results, _ = comparison_runs
    median_dice = statistics.median(results["ascnet7"])
    ok = median_dice >= 0.85
    _report(5, "learning-smoke", ok,
            f"(ascnet7 median test dice={median_dice:.4f}, seeds={results['ascnet7']})")


def test_criterion_6_ordering(comparison_runs):
    results, _ = comparison_runs
    med = {k: statistics.median(v) for k, v in results.items()}
    ok = (med["ascnet7"] > med["classic7"]
          and med["ascnet7"] >= med["dilated7"] - 0.01)
    _report(6, "ordering-reproduction", ok,
            f"(ascnet7={med['ascnet7']:.4f}, classic7={med['classic7']:.4f}, "
            f"dilated7={med['dilated7']:.4f})")


def test_criterion_7_rate_size_correlation(comparison_runs):
    _, rate_means = comparison_runs
    small = statistics.median(m["small"] for m in rate_means)
    large = statistics.median(m["large"] for m in rate_means)
    ok = large > small
    _report(7, "rate-size-correlation", ok,
            f"(median large={large:.3f} vs small={small:.3f})")


def test_criterion_8_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    cfg = data.SynthConfig(num_train=8, num_test=2, seed=0)
    train_set, test_set = data.generate_synth(cfg)
    data.write_samples(train_set, corpus / "train")
    data.write_samples(test_set, corpus / "test")

    blobs = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"{run}.asct"
        report = tmp_path / f"{run}.csv"
        rc = main(["train", "--model", "ascnet7", "--data", str(corpus),
                   "--iters", "25", "--seed", "42", "--deterministic",
                   "--out", str(ckpt), "--report", str(report)])
        assert rc == 0
        blobs.append((ckpt.read_bytes(), report.read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(8, "determinism", ok, "(byte-identical checkpoints and reports)")


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
        "b": rng.standard_normal(7),
    }
    path = tmp_path / "t.asct"
    tensor.save_tensors(path, tensors)
    loaded = tensor.load_tensors(path)
    container_ok = all(np.array_equal(loaded[k], tensors[k]) for k in tensors)

    raw = rng.uniform(0, 1, (16, 16))
    q = np.round(raw * 65535).astype(np.uint16)
    data.write_pgm(tmp_path / "x.pgm", q, maxval=65535)
    back = data.read_pgm(tmp_path / "x.pgm")[0].astype(np.float64) / 65535
    pgm_ok = np.abs(back - raw).max() <= 1.0 / 65535

    ok = container_ok and pgm_ok
    _report(9, "format-round-trips", ok,
            f"(container exact={container_ok}, pgm within 1/65535={pgm_ok})")
