"""spexlab benchmark: one workload, closed loop, one client, jobs = 1.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; spexlab is imported from its ``src/``.
The loop starts one fresh interpreter per repetition (perfbench/rep.py)
and starts the next only after the previous one exits, as long as one
more repetition of average length still fits in --seconds. A fresh
process per repetition matters: the caches in patterns, canon and
constructions are process-global, and a command-line user pays them cold
on every run.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions:

    wall_s       the timed body, caches cold, set-up excluded
    setup_s      process start until the inputs are built (imports of
                 spexlab and numpy, families and graph pairs)
    peak_rss_mb  peak resident memory of the repetition's process

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics listed in BENCHMARK.json: counts from the traced
repetitions (which must agree exactly) and median self times, plus the
tracing overhead (traced over untraced median wall_s, minus 1).

Every repetition checks the program's outputs. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, where attempted and failed count output checks; their ratio is
the fail fraction. BLAS threads are pinned to 1 and PYTHONHASHSEED to 0 in
each repetition's environment; nothing else about the machine is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# a run must end within 180 s; stop waiting for a repetition well before
RUN_DEADLINE_S = 170

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, span_file: Path | None,
            timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON plus setup_s."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    if span_file is not None:
        cmd += ["--spans", str(span_file)]
    env = dict(os.environ, **ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"{workload} repetition exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep["ready"] - spawned
    return rep


def _spread(values: list) -> str:
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    span_file = OUT / f"spans-{args.workload}.npz"
    if args.trace == 1:
        OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    plain, traced = [], []
    k = 0
    try:
        while True:
            use_trace = args.trace == 1 and k % 2 == 1
            timeout = RUN_DEADLINE_S - (time.monotonic() - start)
            rep = run_rep(args.workload, args.seed,
                          span_file if use_trace else None, timeout)
            if use_trace:
                rep["layers"] = spans.layer_metrics(span_file)
                traced.append(rep)
            else:
                plain.append(rep)
            k += 1
            # stop when one more repetition of average length would overrun
            elapsed = time.monotonic() - start
            enough = traced if args.trace == 1 else plain
            if enough and elapsed * (k + 1) / k > args.seconds:
                break
    except RepFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    reps = plain + traced
    checks = [c for rep in reps for c in rep["checks"]]
    outputs = {json.dumps(rep["outputs"], sort_keys=True) for rep in reps}
    checks.append(["every repetition gave the same outputs", len(outputs) == 1, ""])

    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    wall = [r["wall_s"] for r in plain]
    metrics = {}
    if args.trace == 0:
        samples = {"wall_s": wall,
                   "setup_s": [r["setup_s"] for r in plain],
                   "peak_rss_mb": [r["rss_mb"] for r in plain]}
        for m in SPEC["end_to_end"]:
            values = samples[m["name"]]
            metrics[m["name"]] = (statistics.median(values), m["unit"])
            print(f"  {m['name']:<12} {m['unit']:<3} {_spread(values)}")
    else:
        layers = [r["layers"] for r in traced]
        for m in SPEC["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(wall) - 1)
            elif unit == "s":
                value = statistics.median(lay[name] for lay in layers)
            else:
                # counts and ratios of counts repeat exactly for one seed
                values = {lay[name] for lay in layers}
                checks.append([f"{name} is the same in every traced repetition",
                               len(values) == 1, sorted(values)])
                value = layers[0][name]
            metrics[name] = (value, unit)
            print(f"  {name:<26} {value:.6g} {unit}")
    failed = sum(1 for c in checks if not c[1])
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED CHECK: {name} [{detail}]")
    print(f"  fail_frac {failed / len(checks):.6g} "
          f"({failed} of {len(checks)} output checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
