"""``repro.api`` — the stable public facade.

Five PRs of internals left the import surface scattered: examples and
downstream scripts were reaching into ``repro.eval.engine``,
``repro.eval.pipeline`` and friends, none of which promise stability.
This package is the one import surface that does.

Stability policy (also in ``docs/architecture.md``):

* Everything in ``__all__`` here is **stable**: it changes only with a
  deprecation cycle (one release of ``DeprecationWarning`` before
  removal or an incompatible signature change).
* Anything imported from a ``repro.*`` submodule directly is internal —
  it may move or change between releases without notice.
* The HTTP wire schemas re-exported from :mod:`repro.api.wire` are
  versioned separately via ``WIRE_SCHEMA_VERSION``; see the wire
  module's docstring for the bump rules.

The facade groups four layers:

* **Evaluation** — configure and run benchmark sweeps
  (:class:`RunConfig`, :class:`BenchmarkRunner`, :class:`GridRunner`,
  :class:`EvalPipeline`, reports and persistence).
* **Analysis & reporting** — significance, cost, calibration, error
  breakdowns, ASCII tables.
* **Infrastructure handles** — the artifact cache, metrics registry,
  tracer and circuit breaker, for callers wiring observability or
  resilience around a run.
* **Serving** — the HTTP service plus its typed wire schemas.
"""

from ..cache.store import ArtifactCache, build_cache
from ..errors import (
    CircuitOpenError,
    DatasetError,
    DeadlineExceededError,
    EvaluationError,
    ExecutionError,
    ModelError,
    RateLimitedError,
    ReproError,
    ServeError,
    UnsafeSqlError,
    WireFormatError,
)
from ..eval.engine import EvalEngine, GridResult, GridRunner
from ..eval.harness import BenchmarkRunner, RunConfig, RunPlan
from ..eval.metrics import EvalReport, PredictionRecord
from ..eval.persistence import load_report, load_reports, save_report, save_reports
from ..eval.pipeline import EvalPipeline
from ..eval.telemetry import RunTelemetry, TelemetryCollector
from ..eval.calibration import model_calibration
from ..eval.cost import cost_per_question_usd, report_cost_usd
from ..eval.error_analysis import error_breakdown
from ..eval.reporting import format_matrix, format_series, format_table, percent
from ..eval.significance import Comparison, compare_reports, mcnemar_exact
from ..eval.test_suite import TestSuite, test_suite_accuracy
from ..experiments.context import ExperimentContext, get_context
from ..llm.simulated import make_llm
from ..obs.metrics import MetricsRegistry, parse_prometheus
from ..obs.trace import Tracer, build_tracer
from ..resilience.breaker import CircuitBreaker
from .wire import (
    WIRE_SCHEMA_VERSION,
    ErrorResponse,
    ExecuteRequest,
    ExecuteResponse,
    ExplainRequest,
    ExplainResponse,
    GenerateRequest,
    GenerateResponse,
    LintRequest,
    LintResponse,
)

#: Serving names resolved lazily: ``repro.serve`` itself imports the
#: wire schemas from this package, so an eager import here would be a
#: cycle.  ``__getattr__`` defers the serve import until first use.
_SERVE_EXPORTS = {
    "RateLimiter": "ratelimit",
    "SqlServer": "http",
    "SqlService": "service",
    "build_server": "http",
}


def __getattr__(name: str):
    module = _SERVE_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    resolved = getattr(
        importlib.import_module(f"repro.serve.{module}"), name
    )
    globals()[name] = resolved  # cache for subsequent lookups
    return resolved


__all__ = [
    # evaluation
    "BenchmarkRunner",
    "EvalEngine",
    "EvalPipeline",
    "EvalReport",
    "GridResult",
    "GridRunner",
    "PredictionRecord",
    "RunConfig",
    "RunPlan",
    "RunTelemetry",
    "TelemetryCollector",
    "load_report",
    "load_reports",
    "save_report",
    "save_reports",
    # analysis & reporting
    "Comparison",
    "TestSuite",
    "compare_reports",
    "cost_per_question_usd",
    "error_breakdown",
    "format_matrix",
    "format_series",
    "format_table",
    "mcnemar_exact",
    "model_calibration",
    "percent",
    "report_cost_usd",
    "test_suite_accuracy",
    # infrastructure handles
    "ArtifactCache",
    "CircuitBreaker",
    "ExperimentContext",
    "MetricsRegistry",
    "Tracer",
    "build_cache",
    "build_tracer",
    "get_context",
    "make_llm",
    "parse_prometheus",
    # serving
    "RateLimiter",
    "SqlServer",
    "SqlService",
    "build_server",
    # wire schemas
    "WIRE_SCHEMA_VERSION",
    "ErrorResponse",
    "ExecuteRequest",
    "ExecuteResponse",
    "ExplainRequest",
    "ExplainResponse",
    "GenerateRequest",
    "GenerateResponse",
    "LintRequest",
    "LintResponse",
    # errors
    "CircuitOpenError",
    "DatasetError",
    "DeadlineExceededError",
    "EvaluationError",
    "ExecutionError",
    "ModelError",
    "RateLimitedError",
    "ReproError",
    "ServeError",
    "UnsafeSqlError",
    "WireFormatError",
]
