"""The twoweight benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Workloads (see ``workloads.py``): verify_1d, verify_2d,
cli_small, kernel_large.  Every operation is a closed loop with one
caller: the next starts when the previous returns.

With ``--trace 0`` the run prints the end-to-end metrics:

- ``setup_s``: median wall time of fresh interpreters that import
  ``twoweight.harness`` and build the workload's inputs.
- ``wall_s``: median wall time of one pass over the workload's fixed
  list of operations.
- ``op_p50_s``: median latency of one operation.
- ``peak_rss_mb``: peak resident set of the fresh process that ran only
  the workload.

With ``--trace 1`` the same work runs with the package's layer
boundaries rebound to spans (``spans.py``) and the run prints per-layer
call counts and self times per pass, plus ``trace.wall_s``, the traced
pass time, to compare with the untraced ``wall_s`` of the same seed.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
fails when it raises or when the CLI exits 1 on a valid configuration;
an exit 2 (a verification check failed) is a finding and is counted
separately.  Lines before it record the environment, per-operation
digests, the known-red magnitudes and the 90th-percentile latency where
at least ten samples lie beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    """The caller's environment with BLAS threads capped at the CPU count."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        env[var] = str(max(want, 1))
    return env


def _worker_cmd(args, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def time_setup(args, env, deadline) -> list:
    """Wall times of fresh set-up-only workers.

    The wait blocks until the child exits, so its end is seen at once;
    ``subprocess.run`` with a timeout polls instead, in sleeps of up to
    50 ms that would show in the times.  A timer kills a child that is
    still running at the deadline.
    """
    cmd = _worker_cmd(args, "--setup-only")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if time.monotonic() >= deadline:
            raise subprocess.TimeoutExpired(cmd, RUN_LIMIT_S)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def run_worker(args, env, deadline) -> dict:
    cmd = _worker_cmd(args, "--seconds", str(args.seconds),
                      "--trace", str(args.trace))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90_line(latencies) -> str:
    n = len(latencies)
    beyond = n - int(0.9 * n)
    if n < 10 or beyond < 10:
        return (f"op_p90_s not reported: {n} samples, {beyond} beyond the "
                "90th percentile (needs 10)")
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return f"op_p90_s {p90:.6f} s over {n} samples ({beyond} beyond)"


def layer_metrics(passes) -> dict:
    """Per-pass call counts (identical in every pass) and median self times."""
    metrics = {"trace.wall_s": {
        "value": statistics.median(p["wall_s"] for p in passes),
        "unit": "s"}}
    names = [spans.metric_name(t) for t in spans.SPANNED + spans.COUNTED]
    for name in names:
        metrics[f"{name}.calls"] = {
            "value": passes[0]["layers"][name]["calls"], "unit": "count"}
    for name in map(spans.metric_name, spans.SPANNED):
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(p["layers"][name]["self_s"]
                                       for p in passes),
            "unit": "s"}
    statuses = passes[0]["statuses"]
    metrics["ops.failed"] = {"value": statuses.count("failed"),
                             "unit": "count"}
    metrics["ops.checks_failed"] = {"value": statuses.count("checks_failed"),
                                    "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twoweight" / "__init__.py").is_file():
        print(f"error: no twoweight sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    try:
        setup = [] if args.trace else time_setup(args, env, deadline)
        res = run_worker(args, env, deadline)
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stderr or "")
        print(f"error: worker exited {e.returncode}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 3

    passes = res["passes"]
    latencies = [t for p in passes for t in p["latencies"]]
    statuses = [s for p in passes for s in p["statuses"]]
    env_rec = res["environment"]
    print("environment " + json.dumps(env_rec, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(res['labels'])} operations")
    for label, (status, digest, note), seconds in zip(
            res["labels"], res["outcomes"], passes[0]["latencies"]):
        print(f"op {status} {digest[:16] or '-'} {seconds:.3f}s {label}"
              + (f" | {note}" if note else ""))
    for key, value in res["known_reds"].items():
        print(f"known_red {key} {value!r}")
    for problem in res["problems"]:
        print(f"INCORRECT {problem}")
    failed = statuses.count("failed")
    print(f"failed_ratio {failed}/{len(statuses)} = "
          f"{failed / len(statuses):.3f}; checks_failed "
          f"{statuses.count('checks_failed')}/{len(statuses)}")
    print(p90_line(latencies))
    pass_walls = [p["wall_s"] for p in passes]
    if args.trace:
        metrics = layer_metrics(passes)
        wall = metrics["trace.wall_s"]["value"]
        top = sorted(((v["value"], k) for k, v in metrics.items()
                      if k.endswith(".self_s")), reverse=True)[:5]
        print("top self time: " + ", ".join(
            f"{k[:-7]} {v:.3f}s ({v / wall:.0%})" for v, k in top))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0,
                            "unit": "MB"},
        }
        print(f"setup_s samples {setup}")
    print(f"pass wall_s samples {pass_walls}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": len(statuses), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
