"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload train-ascnet7 --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints a human-readable report, then as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The full record (environment, checks, self-time table) and,
when traced, the spans go to .perfbench_work/results/.
"""

import os

# BLAS threads are pinned before numpy is imported; OpenBLAS reads these
# once, at load time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"throughput": "1/s", "latency_ms_p50": "ms",
                    "latency_ms_p90": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
_SUFFIX_UNITS = (("ms_per_step", "ms/step"), (".ms", "ms"), ("_ms", "ms"), (".s", "s"), ("_mb", "MB"),
                 (".gflop", "GFLOP"), ("calls_per_step", "calls/step"),
                 ("spans_per_step", "spans/step"), ("_share", "fraction"),
                 ("throughput", "1/s"), ("loss_final", "nats"),
                 ("trace.steps", "count"))


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in ("rates.min", "rates.mean", "rates.max"):
        return "px"
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def _report(record):
    env = record["env"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"seconds {record['seconds']} trace {int(record['trace'])}",
        "env " + json.dumps(env, sort_keys=True),
        f"timed samples {record['samples']}",
        f"peak RSS after set-up {record['peak_rss_mb_after_setup']:.1f} MB",
    ]
    if record["setup_s_reps"]:
        lines += [" ".join(["set-up s"] + [f"{s:.4f}" for s in record["setup_s_reps"]]),
                  " ".join(["corpus write s"] + [f"{s:.4f}" for s in record["write_s_reps"]])]
    if record["loss_final"]:
        lines.append(f"loss_final {record['loss_final']!r}")
    lines += [f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}"
              for c in record["checks"]]
    rows = record.get("self_time_table")
    if rows:
        lines.append(f"{'span':38s} {'self ms/step':>12s} {'calls/step':>10s} {'share':>7s}")
        lines += [f"{r['name']:38s} {r['self_ms_per_step']:12.4f} "
                  f"{r['calls_per_step']:10.2f} {r['share']:7.2%}" for r in rows]
    for name, m in record["result"]["metrics"].items():
        lines.append(f"metric {name} = {m['value']!r} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ascnet" / "__init__.py").is_file():
        print(f"error: no ascnet package under {src}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    record, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                   args.trace, ROOT)
    out_dir = ROOT / ".perfbench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    result = record["result"]
    result["metrics"] = {k: {"value": float(v), "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(_report(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
