"""Span and count instrumentation for the traced run, installed from outside
the program.

Each wrapped function is rebound under every name that any loaded repcheck
module holds for it, so callers that did `from .x import f` see the wrapper.
CycloNum and ExactMatrix methods are patched on the class, for counts only:
a span per field operation would cost more than the operation. Spans record
name, start, end, parent and op, and stay in memory until the child ends.
uninstall() puts every original back, so untraced ops in the same process
run the program's own code. Nothing is recorded while `active` is false, so
the benchmark's own input generation and output checks do not show up in
the counts.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, function) pairs that get a span per call
SPANNED = (
    ("cli", "main"),
    ("classify", "full_report"),
    ("classify", "classify"),
    ("characters", "char_table"),
    ("groups", "find_isomorphism"),
    ("quantum", "teleport"),
    ("quantum", "entanglement_swap"),
    ("quantum", "iterate_swap_detailed"),
    ("quantum", "povm_construction"),
    ("verify", "run_all"),
)

# (module, class, methods, counter): every method in the group bumps one counter
COUNTED = (
    ("cyclo", "CycloNum", ("__mul__", "__rmul__"), "cyclo.mul_calls"),
    ("cyclo", "CycloNum", ("__add__", "__radd__"), "cyclo.add_calls"),
    ("cyclo", "CycloNum", ("inverse",), "cyclo.inverse_calls"),
    ("cyclo", "CycloNum", ("__hash__",), "cyclo.hash_calls"),
    ("cyclo", "CycloNum", ("__eq__",), "cyclo.eq_calls"),
    ("matrices", "ExactMatrix", ("__matmul__",), "matrices.matmul_calls"),
    ("matrices", "ExactMatrix", ("apply",), "matrices.apply_calls"),
)


def _module(name: str):
    # never `repcheck.classify`: the package rebinds that name to the function
    return importlib.import_module(f"repcheck.{name}")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        # [name, start, end, parent index, op]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {c: 0 for *_, c in COUNTED}
        # counts of each op, in op order
        self.op_counts: list[dict[str, int]] = []
        self._swap_seen: set = set()
        # (object, attribute, original value) for every name install() rebinds
        self._patched: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_counts.append(dict(self.counts))
        for key in self.counts:
            self.counts[key] = 0

    # ------------------------------------------------------------------
    # spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, qualname: str, fn):
        if qualname == "classify.classify":
            def wrapper(f, *args, **kwargs):
                return self.span(f"classify.classify:{f.name}", fn, f, *args, **kwargs)
        elif qualname == "quantum.entanglement_swap":
            def wrapper(inst, corrections=None, left=None):
                kind = "hit" if self._swap_seen_before(inst, corrections, left) else "miss"
                return self.span(f"{qualname}:{kind}", fn, inst, corrections, left)
        else:
            def wrapper(*args, **kwargs):
                return self.span(qualname, fn, *args, **kwargs)
        return wrapper

    def _swap_seen_before(self, inst, corrections, left) -> bool:
        """Whether this process already passed the same (inst, corrections, left).

        The key is the one the program's own swap cache uses, built and
        hashed with counting off.
        """
        if not self.active:
            return False
        self.active = False
        try:
            quantum = _module("quantum")
            if corrections is None:
                corrections = quantum.standard_corrections()
            if left is None:
                left = quantum.bell_state()
            corr = tuple(sorted((lbl, cl, m) for lbl, (cl, m) in corrections.items()))
            key = (inst, corr, left.vector)
            seen = key in self._swap_seen
            self._swap_seen.add(key)
            return seen
        finally:
            self.active = True

    def _check_wrapper(self, name: str, fn):
        def wrapper():
            return self.span(f"verify.check:{name}", fn)
        return wrapper

    # ------------------------------------------------------------------
    # counts

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Rebind the wrappers; uninstall() puts the originals back."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "repcheck" or n.startswith("repcheck.")]
        for modname, fname in SPANNED:
            orig = getattr(_module(modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in loaded:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapper)
        verify = _module("verify")
        self._patch(verify, "ALL_CHECKS", tuple(
            (name, self._check_wrapper(name, fn)) for name, fn in verify.ALL_CHECKS
        ))
        for modname, clsname, methods, key in COUNTED:
            cls = getattr(_module(modname), clsname)
            for meth in methods:
                self._patch(cls, meth, self._counter(key, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)


def outermost(spans: list[list], idx: int) -> bool:
    """True if no ancestor of span idx has the same name."""
    name = spans[idx][0]
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def self_time(spans: list[list], idx: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Child spans of one parent never overlap: there are no threads.
    """
    s = spans[idx]
    return (s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in children.get(idx, ()))
