"""``repro.experiments`` — shared harness for regenerating the paper's tables and figures."""

from .cli import build_parser, main as cli_main
from .figures import Series, format_series_table, sparkline
from .report import ExperimentRecord, MarkdownReport, format_markdown_table
from .pretrained import cache_directory, default_benchmark_config, pretrained_model
from .runner import (
    CodecEvaluation,
    FULL_REFERENCE_METRICS,
    NO_REFERENCE_METRICS,
    evaluate_codec,
    evaluate_codec_on_dataset,
)
from .tables import format_kv_block, format_table

__all__ = [
    "build_parser",
    "cli_main",
    "ExperimentRecord",
    "MarkdownReport",
    "format_markdown_table",
    "Series",
    "format_series_table",
    "sparkline",
    "format_table",
    "format_kv_block",
    "CodecEvaluation",
    "evaluate_codec",
    "evaluate_codec_on_dataset",
    "NO_REFERENCE_METRICS",
    "FULL_REFERENCE_METRICS",
    "pretrained_model",
    "default_benchmark_config",
    "cache_directory",
]
