"""The repcheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory. One
parent process starts fresh child interpreters one after another (a closed
loop with one client, no threads) and checks every op's output. The last
line of stdout is the result as JSON; the line before it records the
Python version, nproc, the seed and the sample counts.

--trace 0 prints the end-to-end metrics BENCHMARK.json lists. The run is
split between several children, each of which pays the import and one cold
op (its set-up) and then runs warm ops until its share of --seconds is
spent. Figures the benchmark measures but does not gate on go to the info
line.

--trace 1 prints the per-layer metrics BENCHMARK.json lists. One child runs
the cold op traced, then a fixed number of warm op pairs, one untraced and
one traced, so that the counts repeat exactly and trace.overhead_frac
compares ops run side by side; then a second child runs the micro-kernels.
--seconds is ignored. The spans are written to
.perfbench/spans-WORKLOAD-seedN.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import OPS  # noqa: E402

# timed children per run: each contributes one set-up sample
CHILDREN = {"classify": 8, "swap-chain": 5, "fresh-states": 10, "verify-all": 3}
# a timed run ends within --seconds plus this: the last child's set-up and
# its last op may overrun its share
SETUP_MARGIN_S = 60.0
# a traced run does a fixed amount of work and ends within this
TRACE_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0

    def spawn(self, script: str, child: int, args: list[str]) -> dict:
        """Run one child interpreter to completion and return its result."""
        self.spawned += 1
        result = self.workdir / f"child-{self.spawned}.json"
        env = dict(os.environ)
        # a fixed hash seed per (seed, child) makes a run repeatable
        env["PYTHONHASHSEED"] = str((self.seed * 7919 + child) % 4294967296)
        cmd = [sys.executable, str(HERE / script), str(ROOT), *args, str(result)]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise ChildFailed(f"{script} exited {proc.returncode}:\n{proc.stderr.strip()}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def op_child(self, child: int, budget_s: float, trace: bool) -> dict:
        return self.spawn("child.py", child, [
            self.workload, str(self.seed), str(child), str(budget_s), "1" if trace else "0",
        ])


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    k = CHILDREN[runner.workload]
    children = [runner.op_child(i, seconds / k, False) for i in range(k)]
    warm_ms = [t * 1e3 for c in children for t in c["warm_s"]]
    p90 = statistics.quantiles(warm_ms, n=10, method="inclusive")[8]
    figures = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "ops_per_s": len(warm_ms) / (sum(warm_ms) / 1e3),
        "op_ms_p50": statistics.median(warm_ms),
        "op_ms_p90": p90,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    info = {
        "children": k,
        "setup_s_samples": [c["setup_s"] for c in children],
        "import_s_samples": [c["import_s"] for c in children],
        "warm_ops": len(warm_ms),
        "warm_ops_per_child": [len(c["warm_s"]) for c in children],
        "op_ms_p90_samples_above": sum(t > p90 for t in warm_ms),
        "peak_rss_mb_samples": [c["peak_rss_mb"] for c in children],
    }
    return figures, children, info


def traced_run(runner: Runner) -> tuple[dict, list[dict], dict]:
    traced = runner.op_child(0, 0.0, True)
    kernels = runner.spawn("kernels.py", 0, [str(runner.seed)])
    ratios = [t / p - 1 for p, t in zip(traced["plain_s"], traced["traced_s"])]
    figures = {**traced["layers"], **kernels["kernels"],
               "trace.overhead_frac": statistics.median(ratios)}
    spans_path = runner.workdir.parent / f"spans-{runner.workload}-seed{runner.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": traced["spans"]}, fh)
    info = {
        "trace_pairs": len(ratios),
        "overhead_frac_quartiles": statistics.quantiles(ratios, n=4),
        "untraced_op_ms_p50": statistics.median(traced["plain_s"]) * 1e3,
        "traced_op_ms_p50": statistics.median(traced["traced_s"]) * 1e3,
        "op_calls": traced["op_calls"],
        "kernel_info": kernels["kernel_info"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return figures, [traced], info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    src = ROOT / "src" / "repcheck"
    if not (src / "__init__.py").is_file():
        print(f"error: no repcheck sources under {src}", file=sys.stderr)
        return 2
    # children should not pay for writing bytecode: a one-shot `repcheck`
    # on an installed package does not either
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: repcheck sources do not compile", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    limit = TRACE_LIMIT_S if args.trace else args.seconds + SETUP_MARGIN_S
    runner = Runner(args.workload, args.seed, workdir, started + limit)
    try:
        if args.trace:
            figures, children, info = traced_run(runner)
        else:
            figures, children, info = timed_run(runner, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not make: {missing}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": figures.pop(m["name"]), "unit": m["unit"]} for m in wanted}
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        **info,
        "not_gated": figures,
        "wall_s": time.monotonic() - started,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
