"""Run one workload in a fresh process and print its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The package is imported from ``src/`` next to this directory.  The
worker builds the workload's operations from the seed, then runs that
fixed list ("a pass") again and again, stopping before a pass would end
past ``--seconds``; it always runs at least one.  Outputs are checked
after each pass, outside the timed region, and every pass must repeat
the first pass's output digests (and, traced, its call counts).  With
``--trace 1`` the package's layer boundaries are rebound to spans for
the whole run.  ``--setup-only`` stops after building the operations; it
is the unit that ``run.py`` times as set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("measure", "grid", "poisson_a2", "bfamily", "singular", "corona",
          "energy", "harness")


def import_package():
    """The package's modules, imported from this checkout's ``src/``."""
    if not (SRC / "twoweight" / "__init__.py").is_file():
        raise SystemExit(f"twoweight sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    importlib.import_module("twoweight.harness")
    mods = {name: importlib.import_module(f"twoweight.{name}")
            for name in LAYERS}
    if Path(mods["harness"].__file__).resolve().parent != SRC / "twoweight":
        raise SystemExit(f"twoweight imported from {mods['harness'].__file__}"
                         f", not from {SRC}")
    return types.SimpleNamespace(**mods)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _layer_delta(after: dict, before: dict) -> dict:
    out = {}
    for name, now in after.items():
        was = before.get(name, {})
        out[name] = {k: v - was.get(k, 0) for k, v in now.items()}
    return out


def run_passes(workload, ops, seconds, tracer) -> dict:
    passes, problems = [], []
    first = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        before = tracer.snapshot() if tracer else {}
        outputs, latencies = [], []
        pass_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as e:      # an operation failure, counted
                out = e
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - pass_start
        layers = _layer_delta(tracer.snapshot(), before) if tracer else {}
        outcomes, found = workload.check(ops, outputs)
        del outputs
        problems += [f"pass {index}: {p}" for p in found]
        digests = [o.digest for o in outcomes]
        counts = {k: v["calls"] for k, v in layers.items()}
        if first is None:
            first = {"outcomes": outcomes, "digests": digests,
                     "counts": counts}
        else:
            if digests != first["digests"]:
                problems.append(f"pass {index}: digests differ from pass 0")
            if counts != first["counts"]:
                problems.append(f"pass {index}: call counts differ from "
                                "pass 0")
        passes.append({"wall_s": wall, "latencies": latencies,
                       "layers": layers,
                       "statuses": [o.status for o in outcomes]})
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds:
            break
    return {"passes": passes, "problems": problems,
            "outcomes": [[o.status, o.digest, o.note]
                         for o in first["outcomes"]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tw = import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(tw, args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer().install()
    try:
        result = run_passes(workload, ops, args.seconds, tracer)
    finally:
        if tracer:
            tracer.restore()
    result.update({
        "labels": [op.label for op in ops],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "known_reds": workloads.known_reds(tw),
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
