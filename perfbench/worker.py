"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Times the import of ``teichmuller`` plus the building of every input
(``setup_s``), then the workload's fixed operations one by one (``op_s``, and
their sum ``wall_s``; checks run outside the clock), with a fixed reference
work timed between them (``ref_s``).  Prints one JSON object as
its last line.  With ``--trace 1`` it also wraps the traced functions, writes
the pass's spans to ``perfbench/out/`` and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


REFERENCE_EVERY_S = 0.5


def interpreter_reference() -> Callable[[], int]:
    """Dict and integer work in the interpreter, then 30,000 random lookups in
    a dict of 40,000 entries (about 4 MB, more than the L2 cache)."""
    rng = random.Random(0)
    keys = [rng.randrange(1 << 40) for _ in range(40_000)]
    table = {k: k + 1 for k in keys}
    lookups = [keys[rng.randrange(len(keys))] for _ in range(30_000)]

    def work() -> int:
        counts: dict = {}
        total = 0
        for i in range(60_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            total += i * i % 7
        for k in lookups:
            total += table[k] & 7
        return total
    return work


def array_reference() -> Callable[[], int]:
    """numpy arithmetic over a 4 MB int64 array, which streams from the L3
    cache as a large dense elimination does."""
    import numpy as np  # imported already by the set-up

    array = np.arange(1 << 19, dtype=np.int64)

    def work() -> int:
        return sum(int(((array * 3 + 1) % 1_000_003)[-1]) for _ in range(5))
    return work


REFERENCES = {"interpreter": interpreter_reference, "array": array_reference}


def timed(work: Callable[[], int], ref_s: list) -> float:
    """Append the time of ``work()`` to ``ref_s``; return the clock at its end."""
    start = time.perf_counter()
    work()
    end = time.perf_counter()
    ref_s.append(end - start)
    return end


def run_operations(ops, reference: str = "interpreter") -> dict:
    """Run each operation, timing only its call; check answers after the clock stops.

    An operation that raises, is refused, or returns a wrong answer counts as
    failed; ``wrong`` counts only the wrong answers.  The reference work of
    the named kind is timed before the first operation, between operations
    whenever ``REFERENCE_EVERY_S`` have passed since its last timing, and
    after the last one (``ref_s``), outside the operations' clocks;
    ``op_ref[i]`` is the index of the timing just before operation ``i``.
    """
    op_s, ref_s, op_ref = [], [], []
    failed = wrong = 0
    failures = []
    work = REFERENCES[reference]()
    last_ref = timed(work, ref_s)
    for op in ops:
        if time.perf_counter() - last_ref > REFERENCE_EVERY_S:
            last_ref = timed(work, ref_s)
        op_ref.append(len(ref_s) - 1)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation must not stop the pass
            op_s.append(time.perf_counter() - start)
            failed += 1
            failures.append({"op": op.name, "error": f"{type(exc).__name__}: {exc}"[:300],
                             "where": traceback.format_exc(limit=-2)[-600:]})
            continue
        op_s.append(time.perf_counter() - start)
        reason = op.check(result)
        if reason is not None:
            failed += 1
            wrong += 1
            failures.append({"op": op.name, "wrong": reason[:300]})
    timed(work, ref_s)
    return {"wall_s": sum(op_s), "op_s": op_s, "ref_s": ref_s, "op_ref": op_ref,
            "attempted": len(ops), "failed": failed, "wrong": wrong, "failures": failures}


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM`` starts afresh at exec.  ``ru_maxrss`` keeps the high-water mark
    of the image before exec, which for a worker is the runner's size at the
    fork.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_from_checkout():
    """Import teichmuller from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import teichmuller
    if not os.path.samefile(Path(teichmuller.__file__).parent.parent, SRC):
        raise SystemExit(f"teichmuller was imported from {teichmuller.__file__}, not {SRC}")
    import workloads
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workloads = import_from_checkout()
    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder, extra_modules=[workloads])
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - start

    queries: list = []
    ops = workload.operations(inputs, args.seed, queries)
    if recorder is not None:
        recorder.reset()
    out = run_operations(ops, workload.reference)
    out["setup_s"] = setup_s
    out["queries_s"] = queries
    out["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        out["layers"] = spans.summarize(recorder.names, recorder.spans, recorder.counters,
                                        out["wall_s"])
        dump = HERE / "out" / f"{args.workload}.seed{args.seed}.spans.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"names": recorder.names, "spans": recorder.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
