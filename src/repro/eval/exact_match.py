"""Spider-style exact-match (EM) evaluation.

Re-implements the official Spider exact-set-match: gold and predicted
queries match when every clause matches *as a set*, after alias resolution
and case folding, **ignoring literal values** inside conditions (the
official metric's convention — value correctness is what execution
accuracy measures).

The component-key scheme (expression keys, flattened condition-leaf
sets, per-clause query keys) lives in :mod:`repro.sql.canonical` and is
shared with the semantic-equivalence engine — exact match uses it with
literal values masked, equivalence with values visible, so the two
metrics can never disagree about *structure*.

:func:`component_match` exposes the per-clause verdicts the official
script reports as partial matching.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sql.canonical import core_components, query_key, resolved_query
from ..sql.ast_nodes import Query

COMPONENTS = (
    "select", "from", "where", "group", "having", "order", "limit", "set_op",
)


def component_match(gold_sql: str, pred_sql: str) -> Optional[Dict[str, bool]]:
    """Per-component verdicts, or ``None`` when either query fails to parse.

    Both queries are alias-resolved first (once per string inside a
    parse scope); components compare as sets with literal values masked.
    """
    gold_query = resolved_query(gold_sql)
    pred_query = resolved_query(pred_sql)
    if gold_query is None or pred_query is None:
        return None

    gold_parts = gold_query.flatten_set_ops()
    pred_parts = pred_query.flatten_set_ops()

    verdict: Dict[str, bool] = {}
    gold_ops = tuple(op for op, _ in gold_parts[1:])
    pred_ops = tuple(op for op, _ in pred_parts[1:])
    verdict["set_op"] = gold_ops == pred_ops

    gold_comp = core_components(gold_parts[0][1])
    pred_comp = core_components(pred_parts[0][1])
    for name in COMPONENTS:
        if name == "set_op":
            continue
        verdict[name] = gold_comp[name] == pred_comp[name]

    # Set-operation tails must match wholesale.
    if gold_ops and verdict["set_op"]:
        gold_tail = "&&".join(
            query_key(Query(core=core)) for _, core in gold_parts[1:]
        )
        pred_tail = "&&".join(
            query_key(Query(core=core)) for _, core in pred_parts[1:]
        )
        verdict["set_op"] = gold_tail == pred_tail
    return verdict


def exact_match(gold_sql: str, pred_sql: str) -> bool:
    """Spider exact-set-match: every component matches."""
    verdict = component_match(gold_sql, pred_sql)
    if verdict is None:
        return False
    return all(verdict.values())
