"""Per-layer tracing from outside the library.

The tracer replaces the module and class attributes that ``explore`` and
``simnet.run`` call through with timing wrappers, so no code inside the
library changes. Each wrapper keeps a span stack: a layer's self time is
its wall time minus the time of the wrapped calls nested inside it (the
tail's self time excludes the ``Sim.apply`` calls it makes, and
``Sim.apply`` excludes ``node_digests``). Every original attribute is put
back when the ``installed`` block ends, even on error.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

# Layer names, in the order they are reported.
LAYERS = (
    "explorer.enumerate",
    "explorer.state_key",
    "explorer.tail",
    "simnet.clone",
    "simnet.apply",
    "simnet.node_digests",
    "simnet.trace_serialize",
    "simnet.schedule_from_json",
    "checkers.observe",
    "checkers.run",
    "checkers.verify",
)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is timed as ``layer``.
    ``count_items`` names an extra counter that adds up ``len(result)``."""

    owner: Any
    attr: str
    layer: str
    count_items: str | None = None


def targets(lib: Any) -> list[Target]:
    """Every attribute the explorer and the replay path call through."""
    explorer, checkers, simnet = lib.explorer, lib.checkers, lib.simnet
    return [
        Target(explorer, "enabled_moves", "explorer.enumerate", count_items="moves"),
        Target(explorer, "_state_key", "explorer.state_key"),
        Target(explorer, "extend_with_tail", "explorer.tail", count_items="events"),
        Target(explorer, "run_checkers", "checkers.run"),
        Target(checkers, "run_checkers", "checkers.run"),
        Target(checkers, "verify_report", "checkers.verify"),
        Target(simnet.Sim, "clone", "simnet.clone"),
        Target(simnet.Sim, "apply", "simnet.apply"),
        Target(simnet.Sim, "node_digests", "simnet.node_digests"),
        Target(simnet.Trace, "serialize", "simnet.trace_serialize"),
        Target(simnet.Schedule, "from_json", "simnet.schedule_from_json"),
        Target(checkers.Observations, "from_sim", "checkers.observe"),
        Target(checkers.Observations, "from_trace", "checkers.observe"),
    ]


def _raw(owner: Any, attr: str) -> Any:
    """The attribute as stored, so a staticmethod stays a staticmethod."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class LayerTracer:
    """Calls, self seconds, failed calls and item counts per layer."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        # One [start, nested seconds] frame per open span.
        self._stack: list[list[float]] = []

    def wrap(self, fn: Callable[..., Any], layer: str, count_items: str | None) -> Callable[..., Any]:
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[layer] += 1
                raise
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count_items is not None:
                self.items[f"{layer}.{count_items}"] += len(result)
            return result

        return timed

    @contextmanager
    def installed(self, lib: Any) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for target in targets(lib):
                raw = _raw(target.owner, target.attr)
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(fn, target.layer, target.count_items)
                saved.append((target.owner, target.attr, raw))
                setattr(
                    target.owner,
                    target.attr,
                    staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped,
                )
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def snapshot(lib: Any) -> list[tuple[Any, str, Any]]:
    """The current object behind every target, for a restore check."""
    return [(t.owner, t.attr, _raw(t.owner, t.attr)) for t in targets(lib)]


def restored(before: list[tuple[Any, str, Any]]) -> bool:
    """True when every target is again the very object it was before."""
    return all(_raw(owner, attr) is raw for owner, attr, raw in before)
