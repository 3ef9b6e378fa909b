"""Spans around graphcert's public functions and the LAPACK entry points.

The wrappers are installed from outside the program: every public function
of the traced graphcert modules, and each dense-kernel entry point, is
replaced by a recording wrapper under every ``graphcert.*`` name that binds
it (modules import one another by name, so patching only the defining
module would miss most calls). ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op]`` with times from
``time.perf_counter``. Spans are recorded only while an op is open, stay in
memory, and are written out by the caller when the run ends. A function
that calls itself (``report_to_json`` recurses over the report) is folded
into its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "io", "models", "linalg", "concentration", "inference",
    "downstream", "protocol", "simulation", "cli",
)
KERNELS = (
    ("numpy.linalg", ("eigh", "eigvalsh", "solve", "svd")),
    ("scipy.sparse.linalg", ("eigsh",)),
)
KERNEL_MODULES = tuple(mod for mod, _ in KERNELS)


def _edge_count(adj) -> int:
    return int((adj.A != 0).sum()) // 2


# per-span counters, evaluated on the return value once the op has ended
COUNTERS = {"io.parse_edge_list": ("io.edges", _edge_count)}


def _graphcert_namespaces():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "graphcert" or name.startswith("graphcert."))
    ]


class Tracer:
    """Install span-recording wrappers and collect spans per op."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []      # (op, counter name, value)
        self._pending: list = []    # (op, counter, return value) until end_op
        self._stack: list = []      # indices into self.spans
        self._op = None
        self._patches: list = []    # (namespace, attribute, original)
        self._op_spans: dict = {}   # op -> range of its span indices

    # -- installation -----------------------------------------------------
    def _targets(self):
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"graphcert.{short}")
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    yield f"{short}.{attr}", mod, attr, obj
        for modname, attrs in KERNELS:
            mod = importlib.import_module(modname)
            for attr in attrs:
                yield f"{modname}.{attr}", mod, attr, getattr(mod, attr)

    def install(self) -> None:
        if self._patches:
            return
        namespaces = _graphcert_namespaces()
        for name, home, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            for ns in {id(m): m for m in (home, *namespaces)}.values():
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._op is None or (stack and tracer.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None, tracer._op]
            tracer.spans.append(rec)
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                tracer._pending.append((tracer._op, counter, result))
            return result

        return wrapper

    # -- recording --------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.spans.append(["op", time.perf_counter(), None, None, op_id])
        self._stack[:] = [len(self.spans) - 1]

    def end_op(self) -> None:
        """Close the op span; the caller stops its clock before this, since
        the counters are evaluated here."""
        first = self._stack[0]
        self.spans[first][2] = time.perf_counter()
        self._op_spans[self._op] = range(first, len(self.spans))
        self._stack.clear()
        self._op = None
        for op, (key, count), result in self._pending:
            self.counts.append((op, key, count(result)))
        self._pending.clear()

    def op_metrics(self, op_id: int) -> dict:
        """Per-name totals for one op: ``<name>.ms``, ``<name>.calls``,
        ``<module>.ms`` for kernel modules and ``<module>.self_ms``."""
        ids = self._op_spans[op_id]
        child = defaultdict(float)
        for i in ids:
            name, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i in ids:
            name, start, end, _, _ = self.spans[i]
            if name == "op":
                continue
            dur = end - start
            module = name.rsplit(".", 1)[0]
            out[f"{name}.ms"] += dur * 1e3
            out[f"{name}.calls"] += 1
            out[f"{module}.self_ms"] += (dur - child[i]) * 1e3
            if module in KERNEL_MODULES:
                out[f"{module}.ms"] += dur * 1e3
        for op, key, value in self.counts:
            if op == op_id:
                out[key] += value
        return dict(out)

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [i, s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                for i, s in enumerate(self.spans)
            ],
            "counts": [list(c) for c in self.counts],
        }
