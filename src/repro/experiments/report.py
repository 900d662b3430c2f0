"""Markdown report generation for experiment results.

Deployments that re-run the benchmark suite on their own hardware usually
want a paper-vs-measured layout generated automatically.  This module provides a
small report builder: record each experiment's measured rows (and optionally
the paper's reference values), then render everything as one Markdown
document or write it to disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["ExperimentRecord", "MarkdownReport", "format_markdown_table"]


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_markdown_table(headers, rows):
    """Render ``rows`` under ``headers`` as a GitHub-flavoured Markdown table."""
    headers = [str(h) for h in headers]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        cells = [_format_cell(cell) for cell in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(headers)} columns"
            )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


@dataclass
class ExperimentRecord:
    """Measured (and optionally paper-reported) results of one experiment."""

    experiment_id: str
    title: str
    headers: list
    rows: list = field(default_factory=list)
    paper_reference: str = ""
    notes: str = ""
    status: str = "reproduced"

    _STATUSES = ("reproduced", "partially reproduced", "not reproduced")

    def __post_init__(self):
        if self.status not in self._STATUSES:
            raise ValueError(f"status must be one of {self._STATUSES}, got {self.status!r}")

    def add_row(self, *cells):
        """Append one measured row (cell count must match the headers)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells ({self.headers}), got {len(cells)}"
            )
        self.rows.append(list(cells))
        return self

    def to_markdown(self):
        """Render this record as a Markdown section."""
        marker = {"reproduced": "✔", "partially reproduced": "◐", "not reproduced": "✗"}[self.status]
        lines = [f"## {self.experiment_id} — {self.title} {marker}", ""]
        if self.paper_reference:
            lines += [f"*Paper reports:* {self.paper_reference}", ""]
        lines.append(format_markdown_table(self.headers, self.rows))
        if self.notes:
            lines += ["", self.notes]
        return "\n".join(lines)


class MarkdownReport:
    """An ordered collection of :class:`ExperimentRecord` rendered as one document."""

    def __init__(self, title="Experiment report", preamble=""):
        self.title = title
        self.preamble = preamble
        self.records = []

    def add(self, record):
        """Append a record (records keep their insertion order)."""
        if not isinstance(record, ExperimentRecord):
            raise TypeError("add() expects an ExperimentRecord")
        self.records.append(record)
        return record

    def new_record(self, experiment_id, title, headers, **kwargs):
        """Create, register and return a new record in one call."""
        record = ExperimentRecord(experiment_id=experiment_id, title=title,
                                  headers=list(headers), **kwargs)
        return self.add(record)

    def summary_rows(self):
        """One row per experiment: id, title, status — the report's index table."""
        return [[record.experiment_id, record.title, record.status]
                for record in self.records]

    def to_markdown(self):
        """Render the whole report."""
        lines = [f"# {self.title}", ""]
        if self.preamble:
            lines += [self.preamble, ""]
        if self.records:
            lines += [format_markdown_table(["experiment", "title", "status"],
                                            self.summary_rows()), ""]
        for record in self.records:
            lines += [record.to_markdown(), ""]
        return "\n".join(lines).rstrip() + "\n"

    def write(self, path):
        """Write the rendered report to ``path`` and return the byte count."""
        content = self.to_markdown()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        return os.path.getsize(path)
