"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload train-ascnet7 --seeds 1-10 --seconds 30

Runs are sequential, one fresh process each, from the repository root.
Writes the per-run results and the summary as JSON to --out when given.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)
        names = runs[0]["metrics"]
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            try:
                summary[name] = benchstats.summarize(values)
            except ValueError:          # zero median: metric not on this workload
                continue
            s = summary[name]
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
