"""Invariant rules: the ROADMAP's standing conventions, machine-checked.

Each rule here encodes a convention that previously lived only in review
memory (see ``ROADMAP.md`` "Standing conventions"): mask work goes through
cached :class:`~repro.core.erase_squeeze.SqueezePlan`\\ s, entropy containers
are format-tagged, hot-path modules stay free of known-slow scalar idioms,
and broad exception handlers justify themselves.
"""

from __future__ import annotations

import ast

from .framework import Rule, register

__all__ = ["HOT_PATH_MODULES", "MaskRederivationRule", "EntropyFormatTagRule",
           "HotPathPixelLoopRule", "HotPathSlowIdiomRule", "BareExceptRule"]

#: The declared hot-path module list (posix path suffixes).  Per-pixel python
#: loops, ``.tolist()`` round-trips and ``x ** 3``-style scalar powers in
#: these files are measured regressions waiting to happen (PR-1 recorded a
#: 20x slowdown from numpy's pow fallback on negative floats alone).
HOT_PATH_MODULES = (
    "repro/entropy/arithmetic.py",
    "repro/entropy/range_coder.py",
    "repro/entropy/bitio.py",
    "repro/entropy/huffman.py",
    "repro/entropy/rle.py",
    "repro/core/erase_squeeze.py",
    "repro/core/patchify.py",
    "repro/core/batch_engine.py",
    "repro/core/reconstruction.py",
    "repro/codecs/jpeg.py",
)

#: The one module allowed to derive indices from an erase mask.
MASK_PLAN_HOME = "repro/core/erase_squeeze.py"

#: Directories where the squeeze-plan discipline applies.  Masks elsewhere
#: (synthetic datasets, metric perturbations) are unrelated boolean arrays.
MASK_SCOPED_DIRS = ("core", "codecs", "serve")

_INDEX_DERIVERS = {"nonzero", "flatnonzero", "argwhere"}


#: Identifier fragments that mean "derived from a mask, but not the array":
#: ``mask_bytes`` dict keys, ``mask_key`` cache keys and the like.
_NOT_AN_ARRAY = ("bytes", "key", "name", "hash", "id", "count")


def _is_mask_identifier(identifier):
    lowered = identifier.lower()
    return ("mask" in lowered
            and not any(tag in lowered for tag in _NOT_AN_ARRAY))


def _mentions_mask(node):
    """True when any identifier in ``node``'s subtree names a mask array."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_mask_identifier(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_mask_identifier(sub.attr):
            return True
    return False


def _call_name(node):
    """Dotted tail of a call target: ``np.flatnonzero`` -> "flatnonzero"."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register
class MaskRederivationRule(Rule):
    """RP001: never re-derive indices from an erase mask at a call site.

    ``np.nonzero`` / ``np.flatnonzero`` / ``np.argwhere`` on a mask, and
    boolean fancy-indexing with a mask (``pixels[mask]``), belong in
    ``core/erase_squeeze.py`` where :class:`SqueezePlan` caches the result —
    everywhere else they silently redo per-mask work the plan already paid
    for.  Plan-builder call sites outside that module carry an explicit
    ``lint: allow`` so the exception is documented where it happens.
    """

    def __init__(self):
        super().__init__(rule_id="RP001", name="mask-index-rederivation",
                        summary="derive mask indices only in core/erase_squeeze.py "
                                "(use a cached SqueezePlan at call sites)")

    def check(self, source):
        if not source.in_directory(*MASK_SCOPED_DIRS):
            return []
        if source.matches(MASK_PLAN_HOME):
            return []
        violations = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if (name in _INDEX_DERIVERS and node.args
                        and _mentions_mask(node.args[0])):
                    violations.append(self.violation(
                        source, node,
                        f"{name}() on a mask re-derives plan indices; go through "
                        "repro.core.erase_squeeze.get_squeeze_plan"))
            elif isinstance(node, ast.Subscript):
                index = node.slice
                candidates = index.elts if isinstance(index, ast.Tuple) else [index]
                for candidate in candidates:
                    if isinstance(candidate, ast.UnaryOp):
                        candidate = candidate.operand
                    if (isinstance(candidate, (ast.Name, ast.Attribute))
                            and _mentions_mask(candidate)):
                        violations.append(self.violation(
                            source, node,
                            "boolean fancy-indexing with a mask re-derives plan "
                            "work; use SqueezePlan gather/scatter"))
                        break
        return violations


@register
class EntropyFormatTagRule(Rule):
    """RP002: entropy containers must carry the format tag.

    A module outside ``repro/entropy/`` that constructs a range coder is
    building an entropy container; its payload header must write and check a
    ``FORMAT_*`` tag, so a payload from a different backend is rejected
    instead of decoded into garbage.
    """

    _CODERS = {"RangeEncoder", "RangeDecoder"}

    def __init__(self):
        super().__init__(rule_id="RP002", name="entropy-format-tag",
                        summary="coder construction outside repro/entropy/ requires "
                                "a FORMAT_* header tag")

    def check(self, source):
        if source.in_directory("entropy"):
            return []
        coder_calls = [node for node in ast.walk(source.tree)
                       if isinstance(node, ast.Call)
                       and _call_name(node) in self._CODERS]
        if not coder_calls:
            return []
        if any(isinstance(node, ast.Name) and node.id.startswith("FORMAT_")
               for node in ast.walk(source.tree)):
            return []
        return [self.violation(source, call,
                               f"{_call_name(call)}() without a FORMAT_RANGE "
                               "header tag in this module")
                for call in coder_calls]


def _is_range_for(node):
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range")


@register
class HotPathPixelLoopRule(Rule):
    """RP003: no per-pixel python loops in declared hot-path modules.

    A ``for ... in range(...)`` nested inside another ``for ... in range(...)``
    is the per-pixel/per-coefficient iteration signature the PR-1/PR-5
    vectorisation sweeps removed; new ones belong in numpy index space.
    """

    def __init__(self):
        super().__init__(rule_id="RP003", name="hot-path-pixel-loop",
                        summary="no nested for-range loops in hot-path modules")

    def check(self, source):
        if not source.matches(*HOT_PATH_MODULES):
            return []
        violations = []
        for node in ast.walk(source.tree):
            if not _is_range_for(node):
                continue
            for inner in ast.walk(node):
                if inner is not node and _is_range_for(inner):
                    violations.append(self.violation(
                        source, inner,
                        "nested for-range loop in a hot-path module; vectorise "
                        "or move off the declared hot path"))
        return violations


@register
class HotPathSlowIdiomRule(Rule):
    """RP004: no known-slow scalar idioms in hot-path modules.

    ``.tolist()`` materialises python objects for every element, and integer
    powers >= 3 on float arrays hit numpy's generic pow fallback (the
    ``x ** 3`` GELU path PR-1 measured at 20x; write ``x * x * x``).  Sites
    where the python-object round-trip genuinely wins (tight scalar loops
    over small arrays) carry a ``lint: allow`` stating so.
    """

    def __init__(self):
        super().__init__(rule_id="RP004", name="hot-path-slow-idiom",
                        summary="no .tolist() or integer ** powers >= 3 in "
                                "hot-path modules")

    def check(self, source):
        if not source.matches(*HOT_PATH_MODULES):
            return []
        violations = []
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tolist" and not node.args):
                violations.append(self.violation(
                    source, node,
                    ".tolist() in a hot-path module materialises per-element "
                    "python objects"))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and node.right.value >= 3
                    and not isinstance(node.left, ast.Constant)):
                violations.append(self.violation(
                    source, node,
                    f"** {node.right.value} hits numpy's generic pow fallback "
                    "on float arrays; expand to repeated multiplication"))
        return violations


@register
class BareExceptRule(Rule):
    """RP005: a swallowing ``except Exception`` must justify itself.

    Handlers for ``Exception`` / ``BaseException`` / bare ``except:`` that do
    not re-raise need the established ``# noqa: BLE001 - reason`` comment on
    the except line, so every intentional swallow states why losing the error
    is safe (marshalled to a future, fallback path, ...).
    """

    _BROAD = {"Exception", "BaseException"}

    def __init__(self):
        super().__init__(rule_id="RP005", name="bare-except-justification",
                        summary="except Exception without re-raise needs "
                                "'# noqa: BLE001 - reason'")

    def _reraises(self, handler):
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
        return False

    def check(self, source):
        violations = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and node.type.id in self._BROAD)
            if not broad or self._reraises(node):
                continue
            comment = source.comment_on(node.lineno)
            if "noqa: BLE001" in comment and comment.split("BLE001", 1)[1].strip("- ").strip():
                continue
            violations.append(self.violation(
                source, node,
                "broad except without re-raise; add '# noqa: BLE001 - reason' "
                "explaining why swallowing is safe"))
        return violations
