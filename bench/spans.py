"""Outside-in span tracer for the ``gsee`` modules.

The tracer wraps the public functions of each module where they are looked
up: the defining module's namespace, every module namespace that imported
the same function object (``qcm4.sum_multiply``, ``recompile.simulate_batch``
...), and the methods of the public classes.  Nothing under ``src/`` is
changed; :meth:`Tracer.uninstall` puts every original back.

Per-element value types (``PauliString``, ``Gate``) are left alone: ``plan``
alone makes millions of ``PauliString.commutes`` calls, so wrapping them
would swamp the run.  Their work is counted from argument sizes instead
(``products`` of ``sum_multiply``, ``pairs`` of ``group_commuting``).

A span is ``[name, start, end, parent, run, counts]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``run`` the label of the run
it belongs to, ``counts`` a dict of work counts or None.  Spans are kept in
memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from types import FunctionType, ModuleType
from typing import Any, Callable, Iterable

EXCLUDED_CLASSES = frozenset({"PauliString", "Gate"})


def _simulate_batch_counts(args, kwargs, result) -> dict:
    circuit = args[0]
    gates = len(circuit.gates) * result.shape[0]
    # one complex128 read and one write of the full state per gate
    return {
        "gate_applications": gates,
        "bytes_computed": gates * result.shape[1] * 16 * 2,
    }


# work counts derived from arguments and results, never from inner calls
COUNTERS: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "pauli.sum_multiply": lambda a, k, r: {"products": len(a[0]) * len(a[1])},
    "pauli.PauliSum.group_commuting": lambda a, k, r: {
        "pairs": len(a[0]) * (len(a[0]) - 1) // 2
    },
    "qcm4.build_moments": lambda a, k, r: {"terms": sum(r.term_counts)},
    "qcm4.plan": lambda a, k, r: {
        "circuits": r.n_circuits,
        "distinct_strings": sum(len(c.terms) for c in r.circuits),
    },
    "simulator.sample_z": lambda a, k, r: {"shots": r.spc},
    "simulator.expectation": lambda a, k, r: {
        "terms": len(a[1] if len(a) > 1 else k["observable"])
    },
    "simulator.simulate_batch": _simulate_batch_counts,
    "recompile.compile_state": lambda a, k, r: {
        "iterations": r.iterations,
        "fidelity": r.fidelity,
    },
}

FAILED = {"failures": 1}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run: Any = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, func: Callable) -> Callable:
        hook = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[5] = FAILED
                raise
            finally:
                tracer._close(record)
            if hook is not None:
                record[5] = hook(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: Iterable[ModuleType]) -> None:
        """Wraps every public function and public-class method of ``modules``."""
        modules = list(modules)
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in module.__all__:
                obj = module.__dict__[name]
                if isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
                    traced = self.wrap(f"{short}.{name}", obj)
                    for other in modules:
                        for attr, value in list(other.__dict__.items()):
                            if value is obj:
                                self._patch(other, attr, traced)
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and name not in EXCLUDED_CLASSES
                ):
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, FunctionType):
                self._patch(cls, attr, self.wrap(label, value))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self.wrap(label, value.__func__)
                self._patch(cls, attr, type(value)(wrapped))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, modules: Iterable[ModuleType]):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered part is the sum of the child durations.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_stats(spans: list[list], runs: Iterable) -> dict[str, dict[str, float]]:
    """Totals per span name over the spans of ``runs``.

    ``calls``, ``busy_s`` (summed duration), ``self_s`` and every work
    count the span recorded; a span that raised adds to ``failures``.
    """
    runs = set(runs)
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _, run, counts) in enumerate(spans):
        if run not in runs:
            continue
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own[index]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return stats
