"""Micro-kernels for the layer costs that no workload isolates.

    python3 perfbench/kernels.py ROOT SEED RESULT

Operands are seeded field elements whose four coefficients are num/den with
|num| <= 9 and 1 <= den <= 9, the height of the fresh-states amplitudes, but
with all four coefficients drawn, so a product does the full 4x4 multiply.
Each figure is the median of several timed batches, per call.
"""

import json
import random
import statistics
import sys
import time
from importlib import import_module

REPEATS = 5


def _per_call(fn, calls: int, scale: float) -> float:
    """Median over REPEATS batches of one batch's time per call, times scale."""
    samples = []
    for _ in range(REPEATS):
        a = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - a) / calls * scale)
    return statistics.median(samples)


def kernel_metrics(seed: int) -> dict:
    from workloads import AMP_DEN, AMP_NUM, rand_fraction

    CycloNum = import_module("repcheck.cyclo").CycloNum
    ExactMatrix = import_module("repcheck.matrices").ExactMatrix
    characters = import_module("repcheck.characters")
    groups = import_module("repcheck.groups")
    rng = random.Random(f"kernels:{seed}")

    def elem():
        while True:
            x = CycloNum(*(rand_fraction(rng) for _ in range(4)))
            if not x.is_zero():
                return x

    def matrix(n: int):
        return ExactMatrix([[elem() for _ in range(n)] for _ in range(n)])

    pairs = [(elem(), elem()) for _ in range(200)]
    invs = [elem() for _ in range(40)]
    m4 = [(matrix(4), matrix(4)) for _ in range(10)]
    a16, b16 = matrix(16), matrix(16)
    d8 = groups.builtin_group("D8")
    return {
        "cyclo.mul_us": _per_call(lambda: [x * y for x, y in pairs], len(pairs), 1e6),
        "cyclo.add_us": _per_call(lambda: [x + y for x, y in pairs], len(pairs), 1e6),
        "cyclo.inverse_us": _per_call(lambda: [x.inverse() for x in invs], len(invs), 1e6),
        "matrices.matmul4_us": _per_call(lambda: [a @ b for a, b in m4], len(m4), 1e6),
        "matrices.matmul16_ms": _per_call(lambda: a16 @ b16, 1, 1e3),
        "characters.char_table_load_ms": _per_call(
            lambda: [characters.char_table(d8) for _ in range(5)], 5, 1e3
        ),
    }, {
        "operand_height": {"num_abs_max": AMP_NUM, "den_max": AMP_DEN, "coeffs": 4},
        "batches": REPEATS,
        "batch_sizes": {"mul_add": len(pairs), "inverse": len(invs), "matmul4": len(m4),
                        "matmul16": 1, "char_table_load": 5},
    }


if __name__ == "__main__":
    root, seed, result_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, root + "/src")
    metrics, info = kernel_metrics(seed)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"kernels": metrics, "kernel_info": info}, fh)
