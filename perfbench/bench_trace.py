"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of each fgfp layer module
(``cli``, ``probfile``, ``corpus``, ``maps``, ``backends``, ``spaces``,
``hypotheses``, ``solver``) at every fgfp module's binding of it, so a
call is seen whichever module makes it: audit-side evaluation goes
through ``fgfp.hypotheses.eval_map_batch``, solver-side evaluation
through ``fgfp.solver.eval_map``.  A module or name that no longer exists
is recorded as absent and skipped.

Each call becomes a span (name, start, end, parent span, command id) in
compact in-memory arrays; ``summarize`` turns them into per-name calls,
inclusive time and self time (the span minus its child spans), and
``write`` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "probfile", "corpus", "maps", "backends", "spaces",
          "hypotheses", "solver")
ROOT_SPAN = "bench.command"


def _rows_from_len(args):
    return len(args[1])


def _rows_from_count(args):
    return int(args[1])


# Work counted at the boundary: rows of the batch argument.
ROW_COUNTERS = {
    "maps.eval_map_batch": _rows_from_len,
    "backends.run_program": _rows_from_len,
    "spaces.distance_batch": _rows_from_len,
    "spaces.leq_batch": _rows_from_len,
    "spaces.sample_points": _rows_from_count,
}


def _solve_iterations(result):
    return result[1].iterations


# Work read from a return value.
RESULT_COUNTERS = {"solver.solve": ("solver.solve.iterations", _solve_iterations)}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cmd = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.command_argv: list[tuple[str, ...]] = []
        self._stack = [-1]
        self._cmd = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_end)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_cmd.append(self._cmd)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def command(self, argv, fn):
        """Run ``fn()`` as one command: a root span that every layer span nests in."""
        self._cmd = len(self.command_argv)
        self.command_argv.append(tuple(argv))
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._cmd = -1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        open_, close = self._open, self._close
        rows_of = ROW_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        if rows_of is not None:
            rows_key = name + ".rows"

            def wrapper(*args, **kwargs):
                try:
                    counters[rows_key] += rows_of(args)
                except (IndexError, TypeError, ValueError):
                    counters[rows_key + "_unknown"] += 1
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        elif result_counter is not None:
            key, extract = result_counter

            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                try:
                    counters[key] += extract(result)
                except (AttributeError, IndexError, TypeError):
                    counters[key + "_unknown"] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, layers=LAYERS) -> None:
        modules = {}
        for layer in layers:
            try:
                modules[layer] = importlib.import_module(f"fgfp.{layer}")
            except ImportError:
                self.absent.append(layer)
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        bindings = [m for n, m in sys.modules.items()
                    if n == "fgfp" or n.startswith("fgfp.")]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._installed.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.span_cmd, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def summarize(self) -> dict:
        """Per-name calls, inclusive and self nanoseconds, plus the accounting check."""
        a = self.arrays()
        name, parent, cmd = a["name"], a["parent"], a["cmd"]
        start, end = a["start"], a["end"]
        n = name.shape[0]
        dur = end - start
        has_parent = parent >= 0
        child_ns = np.zeros(n, dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        self_ns = dur - child_ns

        # accounting: every span closed and inside its parent, siblings do
        # not overlap, and per command the self times add up to the root
        idx = np.arange(n)
        p = parent[has_parent]
        nested = bool(np.all(start[has_parent] >= start[p])
                      and np.all(end[has_parent] <= end[p])
                      and np.all(cmd[has_parent] == cmd[p]))
        order = np.lexsort((idx, parent))
        same = parent[order][1:] == parent[order][:-1]
        disjoint = bool(np.all(start[order][1:][same] >= end[order][:-1][same]))
        roots = idx[~has_parent]
        in_cmd = cmd >= 0
        per_cmd_self = np.bincount(cmd[in_cmd], weights=self_ns[in_cmd],
                                   minlength=len(self.command_argv))
        root_wall = np.zeros(len(self.command_argv))
        root_wall[cmd[roots]] = dur[roots]
        sums_match = bool(np.array_equal(per_cmd_self, root_wall))
        accounting = {
            "spans": int(n),
            "closed": bool(np.all(end >= start)) and bool(np.all(end > 0)),
            "nested": nested,
            "siblings_disjoint": disjoint,
            "self_nonnegative": bool(np.all(self_ns >= 0)),
            "self_sums_equal_wall": sums_match,
            "roots_are_commands": bool(np.all(name[roots] == 0) and np.all(in_cmd)),
        }
        accounting["ok"] = all(v for k, v in accounting.items() if k != "spans")

        calls = np.bincount(name, minlength=len(self.names))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_ns, minlength=len(self.names))
        per_name = {self.names[i]: {"calls": int(calls[i]), "incl_ns": float(incl[i]),
                                    "self_ns": float(own[i])}
                    for i in range(len(self.names))}
        return {"per_name": per_name, "accounting": accounting,
                "counters": dict(self.counters)}

    def share_under(self, child: str, ancestor: str) -> tuple[int, int]:
        """(spans of ``child`` with an ``ancestor`` span above them, all ``child`` spans)."""
        if child not in self.names or ancestor not in self.names:
            return 0, 0
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        anc_id = self.names.index(ancestor)
        # walk every span up its parent chain one level per step; a root
        # points to itself, so the walk ends when every chain is at its root
        up = np.where(parent >= 0, parent, np.arange(parent.shape[0]))
        under = name[up] == anc_id
        cur = up
        for _ in range(64):
            nxt = up[cur]
            if np.array_equal(nxt, cur):
                break
            cur = nxt
            under |= name[cur] == anc_id
        is_child = name == self.names.index(child)
        return int(np.count_nonzero(under & is_child)), int(np.count_nonzero(is_child))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            commands=np.asarray([" ".join(c) for c in self.command_argv]),
                            **self.arrays())
