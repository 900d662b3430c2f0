"""Repo-specific static analysis: invariant linter + lock-discipline checker.

Run ``python -m repro.analysis [paths...]`` (default path: ``src``) or the
``repro-lint`` console script.  Exit status 0 means clean, 1 means
violations, 2 means usage error.  CI runs this blocking on every push.

Rule catalogue
--------------

===== ==========================  =================================================
id    name                        enforces / how to suppress
===== ==========================  =================================================
RP000 allow-needs-reason          Every ``# lint: allow`` comment must name rule
                                  ids and carry a ``- reason`` tail.  Cannot be
                                  suppressed (it *is* the suppression mechanism).
RP001 mask-index-rederivation     No ``np.nonzero``/``flatnonzero``/``argwhere``
                                  on a mask, and no boolean fancy-indexing with a
                                  mask, outside ``core/erase_squeeze.py`` — use a
                                  cached ``SqueezePlan``.  Plan builders suppress
                                  with ``# lint: allow RP001 - <why>``.
RP002 entropy-format-tag          Constructing a range coder outside
                                  ``repro/entropy/`` requires a one-byte
                                  ``FORMAT_*`` header tag in the module.
RP003 hot-path-pixel-loop         No nested for-range loops in declared hot-path
                                  modules (``invariants.HOT_PATH_MODULES``).
RP004 hot-path-slow-idiom         No ``.tolist()`` or integer ``** n`` (n >= 3)
                                  in hot-path modules.  Deliberate python-object
                                  round-trips suppress with a reason.
RP005 bare-except-justification   ``except Exception`` (or broader) that does not
                                  re-raise needs ``# noqa: BLE001 - reason`` on
                                  the except line.
RP101 guarded-attr-outside-lock   Reads/writes of ``# guarded-by: L`` attributes
                                  must sit inside ``with self.L`` (or a Condition
                                  built on L).  Exempt: ``__init__``,
                                  ``*_locked`` methods, ``def ...:  # locked``.
RP102 nested-lock-reacquisition   ``with self.L`` lexically inside another
                                  ``with self.L`` — instant deadlock on a plain
                                  ``threading.Lock``.
RP103 lock-order-cycle            The same class must not nest lock A inside B
                                  on one path and B inside A on another.
RP104 guarded-by-unknown-lock     A ``guarded-by`` annotation must name a lock
                                  attribute the class actually assigns from
                                  ``threading.Lock``/``RLock``/``Condition``.
===== ==========================  =================================================

Suppression syntax (trailing comment on the flagged line)::

    flat = np.flatnonzero(flat_mask)  # lint: allow RP001 - plan builder

Multiple ids share one comment: ``# lint: allow RP001,RP004 - reason``.  The
reason is mandatory; RP000 flags reason-less allows.

The runtime half lives in :mod:`repro.analysis.lockorder`: under
``lock_order_recording()`` every ``threading.Lock()`` is wrapped to record
per-thread acquisition edges keyed by creation site, and cycles in that graph
(or same-instance re-acquisition) fail the enclosing test.  A conftest
fixture enables it for all ``test_serve*`` modules; ``REPRO_LOCK_ORDER=0``
opts out.
"""

from .framework import (Rule, SourceFile, Violation, all_rules,
                        iter_python_files, lint_file, lint_paths, register)
from .lockorder import (InstrumentedLock, LockOrderError, LockOrderRecorder,
                        lock_order_recording)

__all__ = ["Rule", "SourceFile", "Violation", "all_rules", "register",
           "lint_file", "lint_paths", "iter_python_files",
           "InstrumentedLock", "LockOrderError", "LockOrderRecorder",
           "lock_order_recording"]
