"""Lock construction and the runtime lock-order sanitizer.

Every production lock is built through :func:`create_lock`.  With the
sanitizer off it returns a plain ``threading.Lock`` / ``threading.RLock``;
with it on it returns an instrumented lock that catches what the static
rules (R8–R10 in :mod:`repro.analysis.concurrency`) cannot — *actual*
lock-order inversions and long hold times at test time, across call
chains the AST never sees together.

Design:

* When the sanitizer is inactive (the default), ``create_lock`` returns a
  plain primitive — zero overhead, zero extra objects.  When active, it
  returns a :class:`SanitizedLock` that reports every acquire/release to
  the process-wide :class:`LockMonitor`.
* :class:`LockMonitor` keeps a per-thread stack of held locks.  Acquiring
  ``B`` while holding ``A`` records the directed edge ``A -> B``; if the
  reverse edge ``B -> A`` was ever observed (on any thread), that is a
  lock-order inversion — the classic ABBA deadlock shape — and both
  acquisition stacks are captured for the report.  Detection is
  order-sensitive but does not require the deadlock to actually occur,
  so single-threaded tests can prove inversion-freedom deterministically.
* Holding a lock longer than ``long_hold_s`` records a
  :class:`LongHold`, surfacing blocking-work-under-lock that R10 only
  approximates statically.
* :meth:`LockMonitor.bind_metrics` mirrors the findings into the obs
  metrics plane so ``/metrics`` scrapes expose sanitizer activity.

Activation: :func:`activate` / :func:`deactivate` (used by the
``lock_sanitizer`` pytest fixture), or the ``REPRO_LOCK_SANITIZER=1``
environment variable at import time (used by the dedicated CI step).

This module imports only the stdlib: the warehouse, obs and ui packages
import it for ``create_lock``, so anything heavier here would land on
every production import path.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

__all__ = [
    "AbstractLock",
    "Inversion",
    "LockMonitor",
    "LockSite",
    "LongHold",
    "SanitizedLock",
    "activate",
    "create_lock",
    "current_monitor",
    "deactivate",
    "enabled",
]


class AbstractLock(Protocol):
    """The subset of the lock interface production code relies on.

    ``threading.Lock`` is a factory function, not a class, so this
    Protocol is what lets ``create_lock`` be typed while returning either
    a plain primitive or a :class:`SanitizedLock`.
    """

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc_info: object) -> Any: ...


@dataclass(frozen=True)
class LockSite:
    """Where a lock was acquired: thread + a trimmed stack snapshot."""

    lock_name: str
    thread_name: str
    stack: tuple[str, ...]

    def format(self) -> str:
        where = "\n    ".join(self.stack) if self.stack else "<no stack>"
        return f"{self.lock_name} on thread {self.thread_name}:\n    {where}"


@dataclass(frozen=True)
class Inversion:
    """Observed ``first -> second`` after the reverse order was recorded."""

    first: str
    second: str
    site: LockSite
    prior_site: LockSite

    def format(self) -> str:
        return (
            f"lock-order inversion: {self.second} acquired while holding "
            f"{self.first}, but the opposite order was also observed\n"
            f"  this order: {self.site.format()}\n"
            f"  prior opposite order: {self.prior_site.format()}"
        )


@dataclass(frozen=True)
class LongHold:
    """A lock held longer than the monitor's ``long_hold_s`` threshold."""

    lock_name: str
    held_s: float
    site: LockSite

    def format(self) -> str:
        return (
            f"long hold: {self.lock_name} held {self.held_s:.3f}s\n"
            f"  {self.site.format()}"
        )


@dataclass
class _HeldLock:
    name: str
    acquired_at: float
    site: LockSite
    depth: int = 1  # re-entrant acquisitions of the same RLock


class LockMonitor:
    """Process-wide recorder of lock acquisition order and hold times.

    Thread-safe; uses its own plain ``threading.Lock`` (never a
    SanitizedLock — the monitor must not observe itself).
    """

    def __init__(
        self,
        long_hold_s: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        stack_depth: int = 6,
    ) -> None:
        self.long_hold_s = long_hold_s
        self._clock = clock
        self._stack_depth = stack_depth
        self._lock = threading.Lock()  # guards: _edges, _inversions, _long_holds
        # (held, acquired) -> LockSite of the first observation of that order
        self._edges: dict[tuple[str, str], LockSite] = {}
        self._inversions: list[Inversion] = []
        self._long_holds: list[LongHold] = []
        self._local = threading.local()
        self._metrics: Any = None

    # -- per-thread held stack -------------------------------------------

    def _held(self) -> list[_HeldLock]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _site(self, name: str) -> LockSite:
        frames = traceback.extract_stack(limit=self._stack_depth + 3)[:-3]
        rendered = tuple(
            f"{f.filename}:{f.lineno} in {f.name}" for f in frames[-self._stack_depth:]
        )
        return LockSite(
            lock_name=name,
            thread_name=threading.current_thread().name,
            stack=rendered,
        )

    # -- recording hooks (called by SanitizedLock) -----------------------

    def notice_acquire(self, name: str) -> None:
        held = self._held()
        for entry in reversed(held):
            if entry.name == name:  # re-entrant RLock acquire
                entry.depth += 1
                return
        site = self._site(name)
        with self._lock:
            for entry in held:
                pair = (entry.name, name)
                if pair not in self._edges:
                    self._edges[pair] = site
                reverse = self._edges.get((name, entry.name))
                if reverse is not None:
                    self._inversions.append(
                        Inversion(
                            first=entry.name,
                            second=name,
                            site=site,
                            prior_site=reverse,
                        )
                    )
                    if self._metrics is not None:
                        self._metrics["inversions"].labels(
                            first=entry.name, second=name
                        ).inc()
        held.append(_HeldLock(name=name, acquired_at=self._clock(), site=site))

    def notice_release(self, name: str) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].name == name:
                entry = held[i]
                entry.depth -= 1
                if entry.depth > 0:
                    return
                del held[i]
                held_s = self._clock() - entry.acquired_at
                if self._metrics is not None:
                    self._metrics["hold_seconds"].labels(lock=name).observe(held_s)
                if held_s > self.long_hold_s:
                    with self._lock:
                        self._long_holds.append(
                            LongHold(lock_name=name, held_s=held_s, site=entry.site)
                        )
                    if self._metrics is not None:
                        self._metrics["long_holds"].labels(lock=name).inc()
                return
        # Release of a lock this thread never acquired through the
        # sanitizer; nothing to unwind.

    # -- results ----------------------------------------------------------

    @property
    def inversions(self) -> tuple[Inversion, ...]:
        with self._lock:
            return tuple(self._inversions)

    @property
    def long_holds(self) -> tuple[LongHold, ...]:
        with self._lock:
            return tuple(self._long_holds)

    def edges(self) -> dict[tuple[str, str], LockSite]:
        with self._lock:
            return dict(self._edges)

    def report(self) -> str:
        with self._lock:
            inversions = tuple(self._inversions)
            long_holds = tuple(self._long_holds)
            n_edges = len(self._edges)
        lines = [
            f"lock sanitizer: {n_edges} order edge(s), "
            f"{len(inversions)} inversion(s), {len(long_holds)} long hold(s)"
        ]
        for inv in inversions:
            lines.append(inv.format())
        for hold in long_holds:
            lines.append(hold.format())
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self._inversions.clear()
            self._long_holds.clear()

    def bind_metrics(self, registry: Any) -> None:
        """Mirror findings into a ``MetricsRegistry`` (duck-typed to keep
        this module stdlib-only)."""
        self._metrics = {
            "inversions": registry.counter(
                "sanitizer_lock_inversions_total",
                "Lock-order inversions observed by the runtime sanitizer.",
                ("first", "second"),
            ),
            "long_holds": registry.counter(
                "sanitizer_long_holds_total",
                "Lock holds exceeding the sanitizer's long-hold threshold.",
                ("lock",),
            ),
            "hold_seconds": registry.histogram(
                "sanitizer_lock_hold_seconds",
                "Observed lock hold durations.",
                ("lock",),
                buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0),
            ),
        }


class SanitizedLock:
    """Drop-in for ``threading.Lock``/``RLock`` that reports to a monitor.

    Only constructed when the sanitizer is active; production code gets
    plain primitives otherwise (see :func:`create_lock`).
    """

    def __init__(self, name: str, monitor: LockMonitor, *, rlock: bool = False) -> None:
        self.name = name
        self._monitor = monitor
        self._inner: Any = threading.RLock() if rlock else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._monitor.notice_acquire(self.name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._monitor.notice_release(self.name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedLock({self.name!r})"


_active_monitor: LockMonitor | None = None


def activate(monitor: LockMonitor | None = None) -> LockMonitor:
    """Turn the sanitizer on; subsequent ``create_lock`` calls instrument."""
    global _active_monitor
    if monitor is None:
        monitor = LockMonitor()
    _active_monitor = monitor
    return monitor


def deactivate() -> None:
    global _active_monitor
    _active_monitor = None


def enabled() -> bool:
    return _active_monitor is not None


def current_monitor() -> LockMonitor | None:
    return _active_monitor


def create_lock(name: str, *, rlock: bool = False) -> AbstractLock:
    """Construct a lock, instrumented iff the sanitizer is active.

    ``name`` must be stable and unique per lock *role* (e.g.
    ``"QueryCache"``, ``"Schema:jobs"``): the monitor's order graph is
    keyed on it.  With the sanitizer off this is exactly
    ``threading.Lock()`` / ``threading.RLock()``.
    """
    monitor = _active_monitor
    if monitor is None:
        return threading.RLock() if rlock else threading.Lock()
    return SanitizedLock(name, monitor, rlock=rlock)


if os.environ.get("REPRO_LOCK_SANITIZER"):  # pragma: no cover - env-driven
    activate()
