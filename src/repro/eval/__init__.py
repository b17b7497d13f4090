"""Evaluation: exact match, execution accuracy, harness, metrics,
significance testing, cost accounting, test-suite accuracy, error
analysis, reporting and ASCII figures."""

from .calibration import CalibrationReport, calibration_report, model_calibration
from .cost import accuracy_per_dollar, cost_per_question_usd, report_cost_usd
from .error_analysis import (
    ERROR_CATEGORIES,
    ErrorDiagnosis,
    breakdown_rows,
    diagnose,
    error_breakdown,
)
from .exact_match import COMPONENTS, component_match, exact_match
from .engine import EvalEngine, GridResult, GridRunner
from .figures import ascii_lines, ascii_scatter
from .harness import BenchmarkRunner, RunConfig, RunPlan
from .metrics import EvalReport, PredictionRecord
from .telemetry import ProgressEvent, RunTelemetry
from .reporting import format_matrix, format_series, format_table, percent
from .persistence import load_report, load_reports, save_report, save_reports
from .significance import Comparison, compare_reports, mcnemar_exact
from .test_suite import TestSuite, test_suite_accuracy


__all__ = [
    "CalibrationReport", "calibration_report", "model_calibration",
    "load_report", "load_reports", "save_report", "save_reports",
    "accuracy_per_dollar", "cost_per_question_usd", "report_cost_usd",
    "ERROR_CATEGORIES", "ErrorDiagnosis", "breakdown_rows",
    "diagnose", "error_breakdown", "COMPONENTS", "component_match",
    "exact_match", "ascii_lines", "ascii_scatter", "BenchmarkRunner",
    "RunConfig", "RunPlan", "EvalEngine", "GridRunner",
    "GridResult", "RunTelemetry", "ProgressEvent", "EvalReport",
    "PredictionRecord",
    "format_matrix", "format_series", "format_table", "percent",
    "Comparison", "compare_reports", "mcnemar_exact", "TestSuite",
    "test_suite_accuracy",
]
