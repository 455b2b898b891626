"""Span tracer that wraps soclelab's public functions from the outside.

The package binds names directly (``from .algebra import spectrum`` in
``riesz.py``, re-exports in ``soclelab/__init__.py``), so a wrapper
installed only where a function is defined would be bypassed by calls
inside the package. :meth:`Tracer.install` therefore replaces the
function object under every name that holds it, in every ``soclelab``
module, and :meth:`Tracer.uninstall` puts the originals back.

The ``numpy.linalg`` kernels the package calls are wrapped on the
``numpy.linalg`` module itself. numpy's own internal calls (``norm``
and ``cond`` reach ``svd`` through a private module) stay unwrapped, so
each counted call is one call made by soclelab.

Spans are recorded only while an operation is open (:meth:`op`), so
work the benchmark does around an operation (oracle checks, digests)
is never attributed to the program.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

# Each span carries two integers, ``work`` and ``extra``, filled in by
# an optional hook on the call's arguments (before it runs) or on its
# result. For the numpy.linalg kernels the hooks give the computed work
# of one call: n^3 per matrix for eigvals and solve, m*n^2 (m >= n) per
# matrix for svd. Stacked inputs count once per matrix in the stack.


def _batch(a) -> int:
    shape = np.shape(a)
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _n3(a, *args, **kwargs) -> int:
    shape = np.shape(a)
    return _batch(a) * shape[-1] ** 3


def _mn2(a, *args, **kwargs) -> int:
    m, n = np.shape(a)[-2:]
    big, small = max(m, n), min(m, n)
    return _batch(a) * big * small * small


def _solve(a, *args, **kwargs) -> tuple[int, int]:
    return _n3(a), _batch(a)


def _norm2(x, ord=None, *args, **kwargs) -> tuple[int, int]:
    return (1 if ord == 2 else 0), 0


def _probe_hits(report) -> tuple[int, int]:
    """Probes that reached the certified rank, and probes drawn."""
    return report.achieved_counts.get(report.rank, 0), report.probes_used


LINALG_KERNELS = {
    "eigvals": lambda a, *args, **kwargs: (_n3(a), 0),
    "solve": _solve,
    "svd": lambda a, *args, **kwargs: (_mn2(a), 0),
    "lstsq": None,
    "inv": None,
    "cond": None,
    "norm": _norm2,
}
RESULT_HOOKS = {"rank.spectral_rank": _probe_hits}

# Span record layout in the flat array: one row of SPAN_FIELDS ints.
SPAN_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op", "work", "extra")


def soclelab_modules() -> list:
    """Every imported ``soclelab`` module, package root first."""
    return sorted(
        (m for name, m in sys.modules.items()
         if m is not None and (name == "soclelab" or name.startswith("soclelab."))),
        key=lambda m: m.__name__,
    )


def public_functions() -> dict:
    """Map each public soclelab function to its ``module.name`` label.

    A function belongs to the module that defines it; names starting
    with an underscore are private and stay unwrapped.
    """
    out = {}
    for mod in soclelab_modules():
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out[obj] = f"{short}.{name}"
    return out


class Tracer:
    """Records (name, start, end, parent, operation) spans in memory."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self._ids: dict[str, int] = {"op": 0}
        self.spans = array("q")
        self.recording = False
        self._current = -1
        self._op = -1
        self._ops = 0
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _wrap(self, fn, label, pre=None, post=None):
        name_id = self._ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._current
            sid = self._next
            self._next = sid + 1
            self._current = sid
            w, x = pre(*args, **kwargs) if pre is not None else (0, 0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.extend((sid, name_id, t0, clock(), parent, self._op, w, x))
                self._current = parent
                raise
            t1 = clock()
            self._current = parent
            if post is not None:
                w, x = post(result)
            spans.extend((sid, name_id, t0, t1, parent, self._op, w, x))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public soclelab function and the linalg kernels."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {
            fn: self._wrap(fn, label, post=RESULT_HOOKS.get(label))
            for fn, label in public_functions().items()
        }
        for mod in soclelab_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for name, pre in LINALG_KERNELS.items():
            fn = getattr(np.linalg, name)
            self._restore.append((np.linalg, name, fn))
            setattr(np.linalg, name, self._wrap(fn, f"linalg.{name}", pre=pre))

    def uninstall(self) -> None:
        """Put every original function object back where it was."""
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.recording = False
        return False

    # -- recording ----------------------------------------------------

    def op(self, fn, *args):
        """Run one benchmark operation as a root span and return its result.

        Operations are numbered in the order they run; every span inside
        one carries its number.
        """
        op_id = self._op = self._ops
        self._ops += 1
        sid = self._next
        self._next = sid + 1
        self._current = sid
        self.recording = True
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.recording = False
            self._current = -1
            self.spans.extend((sid, 0, t0, t1, -1, op_id, 0, 0))

    def table(self) -> np.ndarray:
        """All spans as an (n, len(SPAN_FIELDS)) int64 array, by span id."""
        t = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        return t[np.argsort(t[:, 0], kind="stable")]

    def write(self, path) -> None:
        """Save the spans (one row of SPAN_FIELDS each) and the name table."""
        np.savez_compressed(
            path, spans=self.table(), fields=np.array(SPAN_FIELDS), names=np.array(self.names)
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total self time (ns) and summed work.

        Self time is a span's duration minus the durations of its
        direct children; calls are single-threaded and nest, so the
        children cover disjoint parts of the parent's interval.
        """
        t = self.table()
        if len(t) == 0:
            return {}
        ids = t[:, 0]
        dur = (t[:, 3] - t[:, 2]).astype(np.float64)
        parent_rows = np.searchsorted(ids, t[:, 4])
        has_parent = t[:, 4] >= 0
        child_time = np.bincount(
            parent_rows[has_parent], weights=dur[has_parent], minlength=len(t)
        )
        self_ns = dur - child_time
        names = t[:, 1]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_tot = np.bincount(names, weights=self_ns, minlength=k)
        work = np.bincount(names, weights=t[:, 6].astype(np.float64), minlength=k)
        extra = np.bincount(names, weights=t[:, 7].astype(np.float64), minlength=k)
        return {
            label: {
                "calls": int(calls[i]),
                "self_ns": float(self_tot[i]),
                "work": float(work[i]),
                "extra": float(extra[i]),
            }
            for i, label in enumerate(self.names)
            if calls[i]
        }
