"""Failure-mode analysis of Text-to-SQL predictions.

The paper's discussion sections classify errors by *where* the prediction
diverges from gold; this module re-implements that analysis by diffing the
predicted AST against the gold AST per clause:

* ``unparseable``   — the prediction is not valid SQL;
* ``wrong-table``   — FROM references different tables;
* ``wrong-select``  — projection/aggregate differs;
* ``wrong-where``   — filter set differs (condition structure);
* ``wrong-value``   — same structure, different literal values;
* ``wrong-group``   — GROUP BY / HAVING differs;
* ``wrong-order``   — ORDER BY / LIMIT differs;
* ``wrong-nesting`` — set operations / subquery structure differs;
* ``semantic``      — every clause matches the EM comparison yet execution
  differs (value-masked EM hides a value error, or DISTINCT semantics).

One failure can exhibit several divergences; the *primary* category is the
first in the order above, which mirrors how the paper attributes errors.

Records whose error class is *transient* (an injected chaos fault such as
``exec:locked``, see :mod:`repro.repair.taxonomy`) are attributed to the
separate ``transient-fault`` bucket instead of any model-error category:
the prediction never got a fair execution, so diffing its AST against
gold would count infrastructure noise as a model mistake.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sql.ast_nodes import Literal, Query, iter_conditions, iter_subqueries
from ..sql.canonical import resolve_aliases
from ..sql.parser import try_parse
from ..repair.taxonomy import is_transient_class
from .exact_match import component_match
from .metrics import PredictionRecord

#: Failures caused by injected/transient faults, not the model — kept
#: out of the model-error categories below.
TRANSIENT_CATEGORY = "transient-fault"

#: Categories in attribution priority order.
ERROR_CATEGORIES = (
    "unparseable",
    "wrong-table",
    "wrong-select",
    "wrong-nesting",
    "wrong-where",
    "wrong-group",
    "wrong-order",
    "wrong-value",
    "semantic",
)


@dataclass(frozen=True)
class ErrorDiagnosis:
    """Categorised failure for one prediction."""

    example_id: str
    primary: str
    divergences: tuple

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.example_id}: {self.primary} {self.divergences}"


def _literal_values(query: Query) -> List[str]:
    values = []
    for _, core in query.flatten_set_ops():
        for cond in (core.where, core.having):
            for leaf in iter_conditions(cond):
                for attr in ("right", "pattern", "low", "high"):
                    value = getattr(leaf, attr, None)
                    if isinstance(value, Literal):
                        values.append(f"{value.kind}:{value.value}")
                values_attr = getattr(leaf, "values", None)
                if isinstance(values_attr, tuple):
                    values.extend(f"{v.kind}:{v.value}" for v in values_attr)
    for sub in iter_subqueries(query):
        for _, core in sub.flatten_set_ops():
            for cond in (core.where, core.having):
                for leaf in iter_conditions(cond):
                    value = getattr(leaf, "right", None)
                    if isinstance(value, Literal):
                        values.append(f"{value.kind}:{value.value}")
    return sorted(values)


def diagnose(record: PredictionRecord) -> Optional[ErrorDiagnosis]:
    """Categorise one failed prediction (``None`` for correct ones)."""
    if record.exec_match:
        return None
    if is_transient_class(record.error_class):
        return ErrorDiagnosis(
            record.example_id, TRANSIENT_CATEGORY, (record.error_class,)
        )
    pred_query = try_parse(record.predicted_sql)
    if pred_query is None:
        return ErrorDiagnosis(record.example_id, "unparseable", ("unparseable",))
    gold_query = try_parse(record.gold_sql)
    if gold_query is None:  # pragma: no cover - benchmark gold always parses
        return ErrorDiagnosis(record.example_id, "semantic", ("gold-unparseable",))

    divergences = []
    verdict = component_match(record.gold_sql, record.predicted_sql)
    assert verdict is not None  # both parsed above

    if not verdict["from"]:
        divergences.append("wrong-table")
    if not verdict["select"]:
        divergences.append("wrong-select")
    if not verdict["set_op"]:
        divergences.append("wrong-nesting")
    if not verdict["where"]:
        divergences.append("wrong-where")
    if not (verdict["group"] and verdict["having"]):
        divergences.append("wrong-group")
    if not (verdict["order"] and verdict["limit"]):
        divergences.append("wrong-order")

    gold_values = _literal_values(resolve_aliases(gold_query))
    pred_values = _literal_values(resolve_aliases(pred_query))
    if gold_values != pred_values:
        divergences.append("wrong-value")

    if not divergences:
        divergences.append("semantic")

    primary = next(c for c in ERROR_CATEGORIES if c in divergences)
    return ErrorDiagnosis(record.example_id, primary, tuple(divergences))


def error_breakdown(records: Sequence[PredictionRecord]) -> Dict[str, int]:
    """Primary-category histogram over a run's failures."""
    counts: Counter = Counter()
    for record in records:
        diagnosis = diagnose(record)
        if diagnosis is not None:
            counts[diagnosis.primary] += 1
    ordered = ERROR_CATEGORIES + (TRANSIENT_CATEGORY,)
    return {c: counts.get(c, 0) for c in ordered if counts.get(c)}


def breakdown_rows(
    breakdowns: Dict[str, Dict[str, int]]
) -> List[Dict[str, object]]:
    """Tabulate several systems' breakdowns (system → category counts)."""
    rows = []
    for system, counts in breakdowns.items():
        total = sum(counts.values())
        row: Dict[str, object] = {"system": system, "failures": total}
        for category in ERROR_CATEGORIES + (TRANSIENT_CATEGORY,):
            if any(category in c for c in breakdowns.values()):
                row[category] = counts.get(category, 0)
        rows.append(row)
    return rows


def lint_cross_tab(
    records: Sequence[PredictionRecord],
) -> Dict[str, Dict[str, int]]:
    """Cross-tabulate analyzer rules against failure categories.

    For every record that carries lint diagnostics, each fired rule is
    counted against the record's outcome: its primary failure category
    from :func:`diagnose`, ``"lint-gated"`` when a fatal diagnostic
    short-circuited execution (nothing to diff), or ``"correct"`` when
    the prediction nonetheless matched gold — that last column measures
    each warning rule's false-positive rate as a wrongness signal.
    """
    table: Dict[str, Dict[str, int]] = {}
    for record in records:
        if not record.diagnostics:
            continue
        if record.error_class.startswith("lint:"):
            outcome = "lint-gated"
        elif record.exec_match:
            outcome = "correct"
        else:
            diagnosis = diagnose(record)
            outcome = diagnosis.primary if diagnosis else "correct"
        for entry in record.diagnostics:
            rule = str(entry.get("rule", ""))
            cell = table.setdefault(rule, {})
            cell[outcome] = cell.get(outcome, 0) + 1
    return {rule: dict(sorted(cells.items()))
            for rule, cells in sorted(table.items())}


def lint_rows(records: Sequence[PredictionRecord]) -> List[Dict[str, object]]:
    """Tabulate :func:`lint_cross_tab` for the experiment tables.

    One row per fired rule: total firings, how many executions the rule
    gated, how many diagnosed predictions still matched gold, and how
    many failed at runtime — plus the rule's *precision* as a wrongness
    signal (flagged-and-wrong / flagged).  Transient-fault records are
    excluded from both sides of the precision ratio: a chaos-killed
    execution says nothing about whether the rule's warning was right.
    """
    rows: List[Dict[str, object]] = []
    for rule, cells in lint_cross_tab(records).items():
        total = sum(cells.values())
        gated = cells.get("lint-gated", 0)
        correct = cells.get("correct", 0)
        transient = cells.get(TRANSIENT_CATEGORY, 0)
        wrong = total - correct - transient
        judged = total - transient
        rows.append({
            "rule": rule,
            "fired": total,
            "gated": gated,
            "correct": correct,
            "wrong": wrong,
            "precision": round(wrong / judged, 3) if judged else 0.0,
        })
    return rows


def metric_cross_tab(
    records: Sequence[PredictionRecord],
) -> List[Dict[str, object]]:
    """Cross-tabulate the three accuracy metrics per hardness bucket.

    One row per hardness level that has records, plus an ``all`` total
    row.  Beyond the three headline rates the disagreement columns are
    the point of the table:

    * ``ex_not_sem`` — executed correctly but unproven: the ceiling on
      how many EX wins *could* be single-instance false positives.
    * ``sem_not_em`` — proved equivalent yet failing exact match: EM
      false negatives (alias/ordering/rewrite noise the canonicalizer
      sees through).
    * ``em_not_sem`` — exact-match hits the prover would not certify
      (typically value-masked EM hiding a wrong literal).
    * ``sem_not_ex`` — should be **zero** (the prover is sound w.r.t.
      execution); reported so regressions surface in the tables
      instead of silently corrupting the metric.
    """
    from ..sql.hardness import HARDNESS_LEVELS

    def row(label: str, bucket: Sequence[PredictionRecord]) -> Dict[str, object]:
        n = len(bucket)
        ex = sum(r.exec_match for r in bucket)
        em = sum(r.exact_match for r in bucket)
        sem = sum(r.semantic_match for r in bucket)
        return {
            "hardness": label,
            "n": n,
            "ex": round(ex / n, 4),
            "em": round(em / n, 4),
            "sem": round(sem / n, 4),
            "ex_not_sem": sum(
                r.exec_match and not r.semantic_match for r in bucket
            ),
            "sem_not_em": sum(
                r.semantic_match and not r.exact_match for r in bucket
            ),
            "em_not_sem": sum(
                r.exact_match and not r.semantic_match for r in bucket
            ),
            "sem_not_ex": sum(
                r.semantic_match and not r.exec_match for r in bucket
            ),
        }

    rows: List[Dict[str, object]] = []
    for level in HARDNESS_LEVELS:
        bucket = [r for r in records if r.hardness == level]
        if bucket:
            rows.append(row(level, bucket))
    if records:
        rows.append(row("all", list(records)))
    return rows
