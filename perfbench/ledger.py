"""Per-layer time ledger for the traced benchmark run.

The traced run times the calls *into* each layer's public functions from
the benchmark's own code: :meth:`Ledger.patch` swaps a module or instance
attribute for a timing wrapper and :meth:`Ledger.restore` puts every
original back, so no tracing code lives in ``src/`` and the untraced
run executes the program untouched.

Spans nest.  Each wrapper records the call's inclusive duration and its
*self* time (inclusive minus the time of spans opened inside it), so a
converge triggered inside a traceroute inside a probe mesh is charged to
converge, not twice.  The operation itself is the root span (``op``);
its self time is the part of the traced wall time no named layer
covers.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

ROOT = "op"


class _Layer:
    __slots__ = ("calls", "total", "self_total", "self_samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.self_samples: List[float] = []


class Ledger:
    """Nested span timer keyed by layer name."""

    def __init__(self) -> None:
        self.layers: Dict[str, _Layer] = {}
        self._children: List[float] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call timed as one span of layer ``name``."""
        layer = self.layers.setdefault(name, _Layer())
        children = self._children
        clock = time.perf_counter

        def timed(*args, **kwargs):
            children.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                own = elapsed - children.pop()
                layer.calls += 1
                layer.total += elapsed
                layer.self_total += own
                layer.self_samples.append(own)
                if children:
                    children[-1] += elapsed

        timed.__wrapped__ = fn
        return timed

    def op(self, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as the root span."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # --------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-timed wrapper of itself."""
        original = vars(owner).get(attr)
        if isinstance(original, classmethod):
            self.replace(owner, attr, classmethod(self.wrap(name, original.__func__)))
        else:
            self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`/:meth:`replace`, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ---------------------------------------------------------- summary

    def wall(self) -> float:
        """Traced wall time: the summed duration of every root span."""
        root = self.layers.get(ROOT)
        return root.total if root is not None else 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self total, self p50 per call, share of wall."""
        wall = self.wall() or 1.0
        rows = {}
        for name, layer in self.layers.items():
            rows[name] = {
                "calls": layer.calls,
                "self_s": layer.self_total,
                "p50_s": (
                    statistics.median(layer.self_samples)
                    if layer.self_samples
                    else 0.0
                ),
                "share": layer.self_total / wall,
            }
        return rows
