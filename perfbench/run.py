"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh single-threaded worker process
started after the previous one ended (closed loop), at least ``MIN_PASSES`` of
them, and more while another one fits in ``--seconds``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; every failure is described on standard error.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3          # untraced passes of a --trace 0 run
MIN_TRACED_PAIRS = 2    # (untraced, traced) pass pairs of a --trace 1 run
DEADLINE_S = 170        # a run must end within 180 s
WORKLOAD_NAMES = ("bar_cohomology", "xpext_search", "pair_algebras")

END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """A fixed environment: one thread, no hash randomisation, nothing inherited.

    The worker is started by the interpreter's own path, which finds its
    packages without any variable.  No bytecode is written, so every pass
    imports the same way.
    """
    return {"PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8", "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(args: list, started: float) -> dict:
    """Run one worker process to its end and return the JSON object it printed last."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("no time left for another pass")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool, started: float) -> dict:
    result = run_worker(["--workload", workload, "--seed", str(seed),
                         "--trace", "1" if trace else "0"], started)
    print(f"[{workload} seed {seed}] pass trace={int(trace)} wall_s={result['wall_s']:.4f} "
          f"setup_s={result['setup_s']:.4f} failed={result['failed']}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"[{workload} seed {seed}] FAILED {json.dumps(failure)}", file=sys.stderr)
    return result


def rounds(started: float, seconds: float, at_least: int):
    """Yield once per round: at least ``at_least`` rounds, then more while the
    next one, as long as the longest so far, still ends within ``seconds``."""
    longest = 0.0
    done = 0
    while True:
        now = time.monotonic()
        if done >= at_least and now - started + longest > seconds:
            return
        yield done
        longest = max(longest, time.monotonic() - now)
        done += 1


def query_latency(passes: list) -> dict:
    """p50 and p90 of the class_of latencies of all untraced passes, in ms."""
    queries_ms = [q * 1e3 for p in passes for q in p["queries_s"]]
    return {"query_p50_ms": statistics.median(queries_ms),
            "query_p90_ms": statistics.quantiles(queries_ms, n=10)[8]}


def best_pass_s(passes: list) -> float:
    """Sum over the operations of each one's fastest time among the passes.

    The host's speed drops for seconds at a time, at random; the fastest of a
    few fresh-process samples of an operation is the least disturbed one.
    """
    return sum(min(times) for times in zip(*(p["op_s"] for p in passes)))


def wall_ref(passes: list) -> float:
    """Median over the passes of the sum over the operations of each one's
    time divided by the mean of the reference timings on either side of it.

    The host's speed drifts by up to half for minutes at a time and the
    reference slows with it, so the ratio keeps the program's cost and drops
    most of the drift.
    """
    return statistics.median(
        sum(t / ((p["ref_s"][j] + p["ref_s"][j + 1]) / 2) for t, j in zip(p["op_s"], p["op_ref"]))
        for p in passes)


def end_to_end_metrics(passes: list) -> dict:
    values = {
        "wall_ref": wall_ref(passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced: list, traced: list) -> dict:
    import spans
    units = spans.per_layer_metrics()
    # counts take a value that occurred; times take the median
    values = {name: (statistics.median_low if units[name][0] == "count" else statistics.median)(
                  [p["layers"][name] for p in traced])
              for name in traced[0]["layers"]}
    values["wall_s"] = best_pass_s(untraced)
    values["trace.overhead_frac"] = (best_pass_s(traced) - values["wall_s"]) / values["wall_s"]
    values.update(query_latency(untraced))
    both = untraced + traced
    values["fail_frac"] = sum(p["failed"] for p in both) / sum(p["attempted"] for p in both)
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "teichmuller" / "__init__.py").is_file():
        print(f"no teichmuller package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A termination signal unwinds through subprocess.run, which kills and
    # waits for the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    untraced, traced = [], []
    try:
        if args.trace:
            for _ in rounds(started, args.seconds, MIN_TRACED_PAIRS):
                untraced.append(run_pass(args.workload, args.seed, False, started))
                traced.append(run_pass(args.workload, args.seed, True, started))
        else:
            for _ in rounds(started, args.seconds, MIN_PASSES):
                untraced.append(run_pass(args.workload, args.seed, False, started))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end_metrics(untraced))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # Too unsteady on a shared host to bound; reported here and, in traced
        # runs, as per-layer metrics.
        print(f"{args.workload} wall_s {best_pass_s(untraced):.6g} s (not bounded)")
        for name, value in query_latency(untraced).items():
            print(f"{args.workload} {name} {value:.6g} ms (not bounded)")
    print(json.dumps({
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
