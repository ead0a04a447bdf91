"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload census --seed 1 [--spans out.npz]

Imports spexlab from ``src/`` of the checkout this file sits in (and
refuses any other copy), builds the inputs, runs the timed body once, checks
the outputs, and prints one JSON line:

    {"ready": <time.monotonic() when the inputs were built>,
     "wall_s": ..., "rss_mb": ..., "checks": [[name, ok, detail], ...],
     "outputs": {...}}

With ``--spans`` the body runs under the tracer and the spans are written
to that file when the body ends. The caches are process-global, so every
repetition needs its own process; run.py starts them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import spexlab

    if not Path(spexlab.__file__).resolve().is_relative_to(SRC):
        print(f"spexlab was imported from {spexlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    ready = time.monotonic()

    checks = []
    tracer = None
    if args.spans is not None:
        tracer = Tracer(workloads.MODULES)
        tracer.install()
    t0 = time.perf_counter()
    try:
        outputs = run(inputs)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            left = tracer.restore()
            checks.append(("tracing restored every patched attribute",
                           not left, str(left)))
    if tracer is not None:
        tracer.save(args.spans)

    checks += [(name, bool(ok), str(detail)) for name, ok, detail
               in check(inputs, outputs)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"ready": ready, "wall_s": wall, "rss_mb": rss_mb,
                      "checks": checks, "outputs": outputs}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
