"""Runtime lock-order recorder: wrapped locks, acquisition edges, cycles.

The static rules in :mod:`repro.analysis.locks` see lexical nesting inside
one class; this module sees what actually happens at runtime across the whole
process.  Under :func:`lock_order_recording`, ``threading.Lock()`` returns an
:class:`InstrumentedLock` that records, per thread, the stack of held locks
and an edge ``A -> B`` whenever ``B`` is acquired while ``A`` is held.  Locks
are identified by their *creation site* (``file:line``), so every
``ShardRouter`` instance's ``self._lock`` collapses onto one graph node and
an order inversion between two instances is still a cycle.

Two failure modes are reported:

* same-instance re-acquisition — acquiring a non-reentrant lock the current
  thread already holds (an immediate deadlock, recorded rather than hung
  because the underlying acquire would block forever);
* a cycle in the site graph — two code paths that take the same pair of lock
  sites in opposite orders, i.e. a deadlock waiting for the right
  interleaving.

The pytest fixture in ``tests/conftest.py`` enables this for every
``test_serve*`` module and fails the test on either report
(opt out with ``REPRO_LOCK_ORDER=0``).
"""

from __future__ import annotations

import _thread
import sys
import threading

__all__ = ["InstrumentedLock", "LockOrderRecorder", "lock_order_recording",
           "LockOrderError"]

_HERE = __file__


class LockOrderError(AssertionError):
    """Raised by :meth:`LockOrderRecorder.check` when discipline is violated."""


def _creation_site():
    """``file:line`` of the frame that called ``threading.Lock()``."""
    frame = sys._getframe(2)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != _HERE and "threading" not in filename.rsplit("/", 1)[-1]:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class InstrumentedLock:
    """A ``threading.Lock`` stand-in that reports acquisitions to a recorder.

    Only the plain-lock surface is implemented (``acquire`` / ``release`` /
    context manager / ``locked``, and ``_at_fork_reinit`` for the stdlib
    modules that register it to run in a forked child); ``threading.Condition`` falls back to
    exactly that surface when ``_release_save`` and friends are missing, so
    Conditions built on instrumented locks record their release/re-acquire
    cycle through ``wait()`` correctly.
    """

    def __init__(self, recorder, site):
        self._lock = _thread.allocate_lock()
        self._recorder = recorder
        self.site = site

    def acquire(self, blocking=True, timeout=-1):
        self._recorder.before_acquire(self, blocking)
        acquired = (self._lock.acquire(blocking, timeout) if timeout != -1
                    else self._lock.acquire(blocking))
        if acquired:
            self._recorder.on_acquired(self)
        return acquired

    def release(self):
        self._recorder.on_release(self)
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def _at_fork_reinit(self):
        # stdlib modules register this to run in a forked child, some after
        # acquiring the lock before the fork (concurrent.futures.thread does):
        # the child's lock starts unlocked, so it is not held either
        self._recorder.on_release(self)
        self._lock._at_fork_reinit()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def __repr__(self):
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<InstrumentedLock {state} from {self.site}>"


class LockOrderRecorder:
    """Per-thread held stacks plus a global site graph of acquisition edges."""

    def __init__(self):
        # the recorder's own mutex must be a *raw* lock: it may be taken while
        # arbitrary instrumented locks are held and must never recurse into
        # the instrumentation itself
        self._mutex = _thread.allocate_lock()
        self._local = threading.local()
        self.edges = {}       # (outer site, inner site) -> example thread name
        self.violations = []  # same-instance re-acquisition reports

    # ------------------------------------------------------------------ #
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def before_acquire(self, lock, blocking):
        stack = self._stack()
        if blocking and any(held is lock for held in stack):
            message = (f"thread {threading.current_thread().name} re-acquired "
                       f"lock from {lock.site} it already holds "
                       "(deadlock on a non-reentrant lock)")
            with self._mutex:
                self.violations.append(message)
            raise LockOrderError(message)

    def on_acquired(self, lock):
        stack = self._stack()
        if stack:
            name = threading.current_thread().name
            with self._mutex:
                for held in stack:
                    if held.site != lock.site:
                        self.edges.setdefault((held.site, lock.site), name)
        stack.append(lock)

    def on_release(self, lock):
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                break

    # ------------------------------------------------------------------ #
    def cycles(self):
        """Site-graph cycles, each as a list of sites ``[a, b, ..., a]``."""
        with self._mutex:
            adjacency = {}
            for outer, inner in self.edges:
                adjacency.setdefault(outer, set()).add(inner)
        found = []
        seen_cycles = set()
        for start in sorted(adjacency):
            path = [start]
            on_path = {start}

            def visit(site):
                for succ in sorted(adjacency.get(site, ())):
                    if succ in on_path:
                        cycle = path[path.index(succ):] + [succ]
                        key = frozenset(cycle)
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            found.append(list(cycle))
                        continue
                    path.append(succ)
                    on_path.add(succ)
                    visit(succ)
                    on_path.discard(succ)
                    path.pop()

            visit(start)
        return found

    def report(self):
        """Human-readable problem list: re-acquisitions plus order cycles."""
        with self._mutex:
            problems = list(self.violations)
        for cycle in self.cycles():
            problems.append("lock-order cycle: " + " -> ".join(cycle))
        return problems

    def check(self):
        """Raise :class:`LockOrderError` if anything was recorded."""
        problems = self.report()
        if problems:
            raise LockOrderError("; ".join(problems))


class lock_order_recording:
    """Context manager: patch ``threading.Lock`` and record through a scope.

    ::

        with lock_order_recording() as recorder:
            exercise_the_serving_stack()
        recorder.check()

    Locks created *before* entry are untouched (they keep working, they just
    are not recorded), so the patch is safe to enable around a subset of a
    test session.  Instrumentation is process-local; forked/spawned workers
    run with real locks.
    """

    def __init__(self):
        self.recorder = LockOrderRecorder()
        self._original = None

    def __enter__(self):
        recorder = self.recorder

        def make_lock():
            return InstrumentedLock(recorder, _creation_site())

        self._original = threading.Lock
        threading.Lock = make_lock
        return recorder

    def __exit__(self, *exc):
        threading.Lock = self._original
        return False
