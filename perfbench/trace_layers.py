"""Span tracer for tnkit's layers, applied from outside the package.

Each traced function is replaced by a wrapper that records one span
``(name, start, end, parent)``. ``from .x import f`` binds ``f`` at import
time in every importing module (``tebd`` holds its own
``apply_two_site_gate``, ``mps``/``mpo``/``tebd`` hold ``contract``), so the
wrapper is bound under every ``tnkit.*`` module attribute that refers to the
original function, not only in the defining module. Spans stay in memory
until the job ends.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.

Beside spans, a few counts are computed from each call's arguments and
result. They repeat exactly; the time spent computing them is recorded as a
``trace.count`` span so that it lands in no layer's self time:

* ``tensors.contract.flops``: sum of ``tnkit.contract_flops`` over calls;
* ``decomp.truncated_svd.flops``: sum of m*n*min(m, n);
* ``decomp.truncated_svd.kept``/``.full``: kept values and min(m, n);
* ``ed.mpo_matvec.bytes``: complex128 bytes of the link-carrying
  intermediate read and written once per site, plus the input and output
  vectors: 16 * (2 * N * D * 2^N + 2 * 2^N).
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

# (module, attribute path) of each traced function, named "<module>.<function>".
LAYERS = (
    ("tensors", "contract"),
    ("tensors", "permute"),
    ("tensors", "reshape"),
    ("tensors", "DenseTensor.from_ndarray"),
    ("decomp", "truncated_svd"),
    ("mps", "apply_two_site_gate"),
    ("mpo", "mpo_expectation"),
    ("tebd", "sweep"),
    ("tebd", "measure_energy"),
    ("trg", "trg_step"),
    ("ed", "mpo_matvec"),
    ("ed", "solve_iterative"),
    ("cli", "parse_config"),
    ("cli", "run"),
)
COUNT_SPAN = "trace.count"


def _count_contract(counts, args, kwargs, out):
    from tnkit.tensors import contract_flops  # never wrapped

    a, axes_a, b, axes_b = args
    counts["tensors.contract.flops"] += contract_flops(a, axes_a, b, axes_b)


def _count_svd(counts, args, kwargs, out):
    m, n = args[0].shape
    counts["decomp.truncated_svd.flops"] += m * n * min(m, n)
    counts["decomp.truncated_svd.kept"] += out.d.shape[0]
    counts["decomp.truncated_svd.full"] += min(m, n)


def _count_matvec(counts, args, kwargs, out):
    op = args[0]
    dim = op.phys_dim**op.n_sites
    link = max(w.shape[0] for w in op.sites)
    counts["ed.mpo_matvec.bytes"] += 16 * (2 * op.n_sites * link * dim + 2 * dim)


_COUNTERS = {
    "tensors.contract": _count_contract,
    "decomp.truncated_svd": _count_svd,
    "ed.mpo_matvec": _count_matvec,
}


class Tracer:
    """Records spans around tnkit's layer functions while installed.

    ``clock`` is any monotonic float clock; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                # a span of its own under the caller, so that counting is
                # subtracted from the caller's self time like any child
                counter(counts, args, kwargs, out)
                spans.append((COUNT_SPAN, end, clock(), parent))
            return out

        return traced

    def install(self, layers=LAYERS, package: str = "tnkit") -> None:
        """Rebind every traced function wherever a ``package`` module holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, attr in layers:
            name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:  # a classmethod: patch the class, which every caller goes through
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.wrap(name, original.__func__, _COUNTERS.get(name))
                setattr(cls, meth, classmethod(wrapped))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, _COUNTERS.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per name: calls, total seconds and self seconds, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), kids in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - kids
        return {"spans": out, "counts": dict(self.counts)}

    def write_spans(self, path: str, run_id) -> None:
        """CSV of every span: run, id, parent, name, start, end (seconds)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("run", "id", "parent", "name", "start", "end"))
            for idx, (name, start, end, parent) in enumerate(self.spans):
                w.writerow((run_id, idx, parent, name, repr(start), repr(end)))
