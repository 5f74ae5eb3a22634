"""How a traced child turns its spans and counts into per-layer metrics.

Every metric except the micro-kernels (kernels.py) and trace.overhead_frac
is a per-op figure over the traced warm ops: a count per op, or
milliseconds per op spent inside the named function. A layer the workload
never enters reads 0. The metric names and units are those BENCHMARK.json
lists.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import outermost, self_time
from workloads import VERIFY_CHECK_NAMES

FAMILIES = ("K4_1234", "Z4_1234", "D4_125", "D4_135", "D4_145", "D4_12345", "D4_123452")

# span name -> metric taking its time per op
SPAN_MS = {
    "characters.char_table": "characters.char_table_ms",
    "groups.find_isomorphism": "groups.find_isomorphism_ms",
    "classify.full_report": "classify.full_report_ms",
    "quantum.teleport": "quantum.teleport_ms",
    "quantum.entanglement_swap:miss": "quantum.swap_miss_ms",
    "quantum.entanglement_swap:hit": "quantum.swap_hit_ms",
    "quantum.iterate_swap_detailed": "quantum.iterate_swap_ms",
    "quantum.povm_construction": "quantum.povm_construction_ms",
    **{f"classify.classify:{f}": f"classify.classify_ms.{f}" for f in FAMILIES},
    **{f"verify.check:{c}": f"verify.check_ms.{c}" for c in VERIFY_CHECK_NAMES},
}

# span name -> metric taking its number of calls per op
SPAN_CALLS = {
    "characters.char_table": "characters.char_table_calls",
    "groups.find_isomorphism": "groups.find_isomorphism_calls",
}

def layer_metrics(tracer) -> dict:
    """Per-op metrics over the traced warm ops (op >= 1), plus every traced
    op's counts."""
    spans = tracer.spans
    n_ops = len(tracer.op_counts)
    n_warm = n_ops - 1
    op_calls = [dict(c) for c in tracer.op_counts]
    for calls in op_calls:
        calls.update({m: 0 for m in SPAN_CALLS.values()})

    children: dict[int, list[int]] = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(idx)

    warm_ms: dict[str, float] = defaultdict(float)
    hits = misses = 0
    cli_self = 0.0
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if name in SPAN_CALLS:
            op_calls[op][SPAN_CALLS[name]] += 1
        if op < 1:
            continue
        if name in SPAN_MS and outermost(spans, idx):
            warm_ms[SPAN_MS[name]] += (end - start) * 1e3
        hits += name == "quantum.entanglement_swap:hit"
        misses += name == "quantum.entanglement_swap:miss"
        if name == "cli.main" and outermost(spans, idx):
            cli_self += self_time(spans, idx, children) * 1e3

    metrics = {m: 0.0 for m in set(SPAN_MS.values())}
    metrics.update({m: v / n_warm for m, v in warm_ms.items()})
    for key in op_calls[0]:
        metrics[key] = sum(c[key] for c in op_calls[1:]) / n_warm
    metrics["quantum.swap_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cli.self_ms"] = cli_self / n_warm
    return {
        "layers": metrics,
        "op_calls": op_calls,
        "spans": [s[:] for s in spans],
    }
