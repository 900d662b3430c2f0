"""Rule framework for the repo-specific static-analysis pass.

The design is deliberately small: a rule is a class with an ``id``, a
``name`` and a ``check(source)`` method returning :class:`Violation`\\ s; a
:class:`SourceFile` is one parsed module with everything a rule needs
precomputed (AST, a parent map for lexical-ancestry walks, and the comment
map that drives suppressions).  ``python -m repro.analysis`` wires the two
together over a file tree.

Suppressions
------------

A violation is suppressed by a trailing comment on the reported line::

    flat = np.flatnonzero(mask)  # lint: allow RP001 - plan builder, the one place indices are derived

The rule id is mandatory and so is the ``- reason`` tail: an allow without a
reason is itself a violation (``RP000``), because the whole point of the
mechanism is that every exception to a convention is written down.  Several
ids may share one comment (``# lint: allow RP001,RP004 - reason``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Violation", "SourceFile", "Rule", "all_rules", "register",
           "lint_paths", "lint_file", "iter_python_files"]

#: ``# lint: allow RP001 - reason`` / ``# lint: allow RP001,RP101 - reason``
_ALLOW_PATTERN = re.compile(
    r"#\s*lint:\s*allow\s+(?P<ids>RP\d{3}(?:\s*,\s*RP\d{3})*)\s*(?P<reason>-.*)?$")


@dataclass(frozen=True)
class Violation:
    """One rule hit, formatted ``path:line:col RPxxx message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"


class SourceFile:
    """One parsed python module plus the derived structures rules share.

    ``relpath`` is the path rendered with forward slashes; rules scope
    themselves with suffix matches on it (``repro/core/erase_squeeze.py``)
    so the checker behaves identically on the installed tree, the src/
    layout and test fixture trees.
    """

    def __init__(self, path, text=None):
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.relpath = self.path.as_posix()
        self.tree = ast.parse(self.text, filename=str(self.path))
        self._parents = None
        self._comments = None
        self._allows = None

    # ------------------------------------------------------------------ #
    @property
    def parents(self):
        """Child AST node -> parent AST node, for lexical-ancestry walks."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def ancestors(self, node):
        """Yield the enclosing nodes of ``node``, innermost first."""
        parent = self.parents.get(node)
        while parent is not None:
            yield parent
            parent = self.parents.get(parent)

    # ------------------------------------------------------------------ #
    @property
    def comments(self):
        """Line number -> comment text (``#`` included), via tokenize."""
        if self._comments is None:
            self._comments = {}
            try:
                tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
                for token in tokens:
                    if token.type == tokenize.COMMENT:
                        self._comments[token.start[0]] = token.string
            except tokenize.TokenError:
                pass
        return self._comments

    @property
    def allows(self):
        """Line number -> (set of allowed rule ids, reason present?)."""
        if self._allows is None:
            self._allows = {}
            for line, comment in self.comments.items():
                match = _ALLOW_PATTERN.search(comment)
                if match is not None:
                    ids = {part.strip() for part in match.group("ids").split(",")}
                    has_reason = bool(match.group("reason")
                                      and match.group("reason").strip("- ").strip())
                    self._allows[line] = (ids, has_reason)
        return self._allows

    def is_allowed(self, rule_id, line):
        entry = self.allows.get(line)
        return entry is not None and rule_id in entry[0] and entry[1]

    def comment_on(self, line):
        return self.comments.get(line, "")

    def matches(self, *suffixes):
        """True when the file path ends with any of the given posix suffixes."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)

    def in_directory(self, *fragments):
        """True when the path contains any ``/fragment/`` directory component."""
        return any(f"/{fragment}/" in self.relpath for fragment in fragments)


@dataclass
class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    rule_id: str = "RP000"
    name: str = "unnamed"
    summary: str = ""

    def check(self, source):  # pragma: no cover - abstract
        raise NotImplementedError

    def violation(self, source, node_or_line, message, col=None):
        if isinstance(node_or_line, int):
            line, column = node_or_line, col or 0
        else:
            line, column = node_or_line.lineno, node_or_line.col_offset
        return Violation(source.relpath, line, column, self.rule_id, message)


_REGISTRY = []


def register(rule_class):
    """Class decorator adding a rule to the global registry."""
    _REGISTRY.append(rule_class)
    return rule_class


def all_rules():
    """Instantiate every registered rule (import side effect brings them in)."""
    from . import invariants, locks  # noqa: F401 - registration side effect
    return [rule_class() for rule_class in _REGISTRY]


class _AllowHygieneRule(Rule):
    """RP000: every ``lint: allow`` must carry a rule id and a reason.

    Not registered — the runner applies it unconditionally, so a tree cannot
    silence the linter with reason-less blanket allows.
    """

    def __init__(self):
        super().__init__(rule_id="RP000", name="allow-needs-reason",
                        summary="lint: allow comments must name rule ids and a reason")

    def check(self, source):
        violations = []
        for line, comment in sorted(source.comments.items()):
            if "lint:" in comment and "allow" in comment:
                entry = source.allows.get(line)
                if entry is None:
                    violations.append(self.violation(
                        source, line,
                        "malformed suppression; use '# lint: allow RPxxx - reason'"))
                elif not entry[1]:
                    violations.append(self.violation(
                        source, line,
                        "suppression is missing its '- reason' justification"))
        return violations


def iter_python_files(paths):
    """Expand files/directories into a sorted list of ``*.py`` paths."""
    files = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py")
                                if "__pycache__" not in p.parts))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_file(source, rules=None):
    """Run ``rules`` (default: all registered) over one :class:`SourceFile`."""
    rules = list(rules) if rules is not None else all_rules()
    violations = list(_AllowHygieneRule().check(source))
    for rule in rules:
        for violation in rule.check(source):
            if not source.is_allowed(violation.rule_id, violation.line):
                violations.append(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule_id))


def lint_paths(paths, rules=None):
    """Lint every python file under ``paths``; returns all violations."""
    rules = list(rules) if rules is not None else all_rules()
    violations = []
    for path in iter_python_files(paths):
        try:
            source = SourceFile(path)
        except (SyntaxError, UnicodeDecodeError) as error:
            violations.append(Violation(Path(path).as_posix(), 1, 0, "RP000",
                                        f"file does not parse: {error}"))
            continue
        violations.extend(lint_file(source, rules))
    return violations
