"""One fresh interpreter of the benchmark: import repcheck, run the cold op,
then warm ops, and write what it measured as JSON.

    python3 perfbench/child.py ROOT WORKLOAD SEED CHILD BUDGET_S TRACE RESULT

ROOT is the repository root, whose src/ holds repcheck. Only sys and time
are imported before the clock starts, so setup_s counts the whole import of
repcheck.

TRACE 0: the child runs the workload's MIN_WARM_OPS warm ops, then more
while the next one is expected to end no more than half an op past BUDGET_S
seconds from its start, so that on average a child uses its whole budget.
Peak memory is read after the first MIN_WARM_OPS warm ops, so it does not
grow with the number of ops a fast machine fits in.

TRACE 1: the cold op is traced, then TRACE_PAIRS[workload] pairs of warm
ops run, one untraced and one traced, with the tracer installed only around
the traced one. BUDGET_S is ignored, so the counts repeat exactly.
"""

import sys
import time

t0 = time.perf_counter()
root, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")
import repcheck  # noqa: E402,F401

if workload != "fresh-states":
    import repcheck.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from layers import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MIN_WARM_OPS, OPS, TRACE_PAIRS  # noqa: E402


def main() -> None:
    seed, child = int(sys.argv[3]), int(sys.argv[4])
    budget_s = float(sys.argv[5])
    trace, result_path = sys.argv[6] == "1", sys.argv[7]

    op = OPS[workload](os.path.dirname(result_path))
    rng = random.Random(f"{workload}:{seed}:{child}")
    tracer = Tracer() if trace else None
    failures: list[str] = []
    attempted = 0

    def one(traced_op: int = -1) -> float:
        """Run one op on a fresh input; traced_op >= 0 runs it traced."""
        nonlocal attempted
        attempted += 1
        inp = op.make_input(rng)
        op.clear()
        if traced_op >= 0:
            tracer.install()
            tracer.begin_op(traced_op)
        a = time.perf_counter()
        try:
            out = op.run(inp)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out = exc
        elapsed = time.perf_counter() - a
        if traced_op >= 0:
            tracer.end_op()
            tracer.uninstall()
        if isinstance(out, Exception):
            failures.append(f"op {attempted - 1}: {type(out).__name__}: {out}")
        elif not op.check(inp, out):
            failures.append(f"op {attempted - 1}: output check failed")
        return elapsed

    result: dict = {"import_s": import_s}
    if trace:
        result["cold_s"] = one(0)
        plain, traced = [], []
        for i in range(1, TRACE_PAIRS[workload] + 1):
            plain.append(one())
            traced.append(one(i))
        result.update(layer_metrics(tracer), plain_s=plain, traced_s=traced)
    else:
        min_warm = MIN_WARM_OPS[workload]
        times: list[float] = []
        result["cold_s"] = one()
        result["setup_s"] = import_s + result["cold_s"]
        while len(times) < min_warm or time.perf_counter() - t0 + times[-1] / 2 <= budget_s:
            times.append(one())
            if len(times) == min_warm:
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["warm_s"] = times
    result.update(attempted=attempted, failures=failures)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
