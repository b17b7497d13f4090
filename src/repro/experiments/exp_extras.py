"""Supplementary analyses beyond the paper's numbered artifacts.

* ``hardness`` — per-hardness EX breakdown of the main systems (the paper
  reports hardness splits for its headline results).
* ``cost`` — monetary cost per question and accuracy-per-dollar, the
  economics framing of the paper's efficiency sections.
* ``sc_sweep`` — self-consistency sample-count ablation.
* ``dail_threshold`` — ablation of DAIL_S's skeleton-similarity gate.
* ``self_correction`` — execution-feedback retry on top of zero-shot.
* ``errors`` — AST-diff failure-mode breakdown per system.
* ``lint`` — static-analyzer summary: per-rule firing counts, gated
  executions, and each rule's precision as a wrongness signal.
* ``metric_audit`` — EM × EX × semantic-equivalence cross-tab per
  hardness bucket: where the three metrics disagree and why.
* ``calibration`` — reliability diagram of the simulated outcome model.
* ``pound_sign`` — the introduction's anecdote: OD_P without "#" markers.
"""

from __future__ import annotations

from typing import List, Optional

from ..eval.cost import accuracy_per_dollar, cost_per_question_usd
from ..eval.harness import RunConfig
from ..eval.reporting import percent
from ..llm.simulated import make_llm
from .base import ExperimentResult
from .context import get_context
from .exp_feedback import rounds_runner

_DAIL_CONFIG = dict(
    model="gpt-4", representation="CR_P", organization="DAIL_O",
    selection="DAIL_S", k=5, foreign_keys=True,
)


def run_hardness(fast: bool = False, limit: Optional[int] = None) -> ExperimentResult:
    """Per-hardness EX for DAIL-SQL, few-shot random, and zero-shot."""
    context = get_context(fast)
    systems = [
        ("DAIL-SQL (GPT-4)", RunConfig(**_DAIL_CONFIG)),
        ("Random 5-shot (GPT-4)", RunConfig(
            model="gpt-4", representation="CR_P", organization="FI_O",
            selection="RD_S", k=5)),
        ("Zero-shot (GPT-4)", RunConfig(model="gpt-4", representation="CR_P")),
        ("Zero-shot (Vicuna-33B)", RunConfig(
            model="vicuna-33b", representation="CR_P")),
    ]
    grid = context.sweep([config for _, config in systems], limit=limit)
    rows: List[dict] = []
    for (name, _config), report in zip(systems, grid):
        breakdown = report.by_hardness()
        rows.append({
            "system": name,
            **{level: percent(value) for level, value in breakdown.items()},
            "all": percent(report.execution_accuracy),
        })
    return ExperimentResult(
        artifact_id="hardness",
        title="Supplementary: EX by Spider hardness level (%)",
        rows=rows,
        notes=(
            "Accuracy falls monotonically easy→extra for every system; "
            "good examples help most on hard/extra queries."
        ),
    )


def run_cost(fast: bool = False, limit: Optional[int] = None) -> ExperimentResult:
    """Dollar cost per question for the leaderboard systems."""
    from ..core.baselines import leaderboard_entries

    context = get_context(fast)
    entries = leaderboard_entries()
    grid = context.sweep(
        [entry.config for entry in entries],
        limit=limit,
        n_samples=[entry.n_samples for entry in entries],
    )
    rows: List[dict] = []
    for entry, report in zip(entries, grid):
        rows.append({
            "system": entry.name,
            "EX": percent(report.execution_accuracy),
            "USD/question": round(
                cost_per_question_usd(report, entry.config.model), 5),
            "EX-points per $": round(
                accuracy_per_dollar(report, entry.config.model), 1),
        })
    return ExperimentResult(
        artifact_id="cost",
        title="Supplementary: monetary cost of the leaderboard systems",
        rows=rows,
        notes=(
            "DAIL_O's token savings translate directly into dollars; "
            "GPT-3.5 systems are far cheaper per question but buy less "
            "accuracy."
        ),
    )


def run_sc_sweep(fast: bool = False, limit: Optional[int] = None) -> ExperimentResult:
    """Self-consistency sample-count ablation for DAIL-SQL."""
    context = get_context(fast)
    counts = (1, 3, 5, 7)
    grid = context.sweep(
        [RunConfig(**_DAIL_CONFIG, label=f"sc@{n}") for n in counts],
        limit=limit,
        n_samples=list(counts),
    )
    rows: List[dict] = []
    for n_samples, report in zip(counts, grid):
        rows.append({
            "samples": n_samples,
            "EX": percent(report.execution_accuracy),
        })
    return ExperimentResult(
        artifact_id="sc_sweep",
        title="Supplementary: self-consistency sample count (DAIL-SQL, GPT-4)",
        rows=rows,
        notes="Small monotone gain that saturates quickly, as in the paper.",
    )


def run_dail_threshold(fast: bool = False,
                       limit: Optional[int] = None) -> ExperimentResult:
    """Ablate the skeleton-similarity gate of DAIL selection.

    Threshold 0 disables the structural gate (pure masked-question
    similarity, i.e. MQS_S); very high thresholds gate almost nothing in.
    """
    from ..selection.strategies import DailSelection

    context = get_context(fast)
    rows: List[dict] = []
    for threshold in (0.0, 0.2, 0.35, 0.6, 0.9):
        # Thresholds change only the selection artifacts (the strategy
        # fingerprint includes the threshold); sharing the context cache
        # lets preliminary SQL and gold rows amortise across the ablation.
        runner = context.derived_runner()
        strategy = DailSelection(context.train, skeleton_threshold=threshold)
        strategy.set_target_dataset(context.dev)
        runner._selections["DAIL_S"] = strategy
        report = context.sweep(
            [RunConfig(**_DAIL_CONFIG)], limit=limit, runner=runner
        )[0]
        rows.append({
            "skeleton threshold": threshold,
            "EX": percent(report.execution_accuracy),
        })
    return ExperimentResult(
        artifact_id="dail_threshold",
        title="Supplementary: DAIL_S skeleton-similarity threshold ablation",
        rows=rows,
        notes=(
            "A moderate gate beats none (structure matters) and beats an "
            "extreme one (question similarity still matters)."
        ),
    )


def run_error_analysis(fast: bool = False,
                       limit: Optional[int] = None) -> ExperimentResult:
    """Failure-mode breakdown for representative systems (paper-style)."""
    from ..eval.error_analysis import breakdown_rows, error_breakdown

    context = get_context(fast)
    systems = [
        ("DAIL-SQL (GPT-4)", RunConfig(**_DAIL_CONFIG)),
        ("Zero-shot (GPT-4)", RunConfig(model="gpt-4", representation="CR_P")),
        ("Zero-shot (Vicuna-33B)", RunConfig(
            model="vicuna-33b", representation="CR_P")),
        ("Zero-shot (LLaMA-13B)", RunConfig(
            model="llama-13b", representation="CR_P")),
    ]
    grid = context.sweep([config for _, config in systems], limit=limit)
    breakdowns = {}
    for (name, _config), report in zip(systems, grid):
        breakdowns[name] = error_breakdown(report.records)
    return ExperimentResult(
        artifact_id="errors",
        title="Supplementary: failure-mode breakdown (primary category counts)",
        rows=breakdown_rows(breakdowns),
        notes=(
            "Weak models fail structurally (wrong table/column, "
            "unparseable); strong models' residual errors concentrate in "
            "conditions and values."
        ),
    )


def run_lint_summary(fast: bool = False,
                     limit: Optional[int] = None) -> ExperimentResult:
    """Static-analyzer summary over representative systems.

    For each system, every fired lint rule is cross-tabulated against
    the prediction's outcome (see
    :func:`~repro.eval.error_analysis.lint_rows`): how often it fired,
    how many executions its fatal diagnostics gated, and the rule's
    precision as a wrongness signal — flagged predictions that indeed
    missed execution accuracy.
    """
    from ..eval.error_analysis import lint_rows

    context = get_context(fast)
    systems = [
        ("DAIL-SQL (GPT-4)", RunConfig(**_DAIL_CONFIG)),
        ("Zero-shot (GPT-4)", RunConfig(model="gpt-4", representation="CR_P")),
        ("Zero-shot (Vicuna-33B)", RunConfig(
            model="vicuna-33b", representation="CR_P")),
        ("Zero-shot (LLaMA-13B)", RunConfig(
            model="llama-13b", representation="CR_P")),
    ]
    grid = context.sweep([config for _, config in systems], limit=limit)
    rows: List[dict] = []
    for (name, _config), report in zip(systems, grid):
        gated = sum(
            1 for r in report.records if r.error_class.startswith("lint:")
        )
        flagged = sum(1 for r in report.records if r.diagnostics)
        if not flagged:
            rows.append({"system": name, "rule": "(none fired)",
                         "fired": 0, "gated": 0, "precision": ""})
            continue
        for rule_row in lint_rows(report.records):
            rows.append({"system": name, **rule_row})
        rows.append({"system": name, "rule": "TOTAL",
                     "fired": flagged, "gated": gated, "precision": ""})
    return ExperimentResult(
        artifact_id="lint",
        title="Supplementary: static-analyzer diagnostics by system",
        rows=rows,
        notes=(
            "Weak models trip identifier-resolution rules (fatal, so the "
            "DB round-trip is skipped); warning rules fire rarely on "
            "strong models and mostly on genuinely wrong predictions."
        ),
    )


def run_metric_audit(fast: bool = False,
                     limit: Optional[int] = None) -> ExperimentResult:
    """EM × EX × semantic-equivalence audit of the evaluation metrics.

    For representative systems, cross-tabulates the three per-record
    verdicts per hardness bucket
    (:func:`~repro.eval.error_analysis.metric_cross_tab`).  The
    disagreement columns audit the metrics against each other:
    ``ex_not_sem`` bounds potential execution-accuracy false positives
    (right answer on this instance, no proof it generalises),
    ``sem_not_em`` counts exact-match false negatives (provably
    equivalent rewrites EM rejects), ``em_not_sem`` is mostly
    value-masked EM hiding wrong literals, and ``sem_not_ex`` must stay
    zero (prover soundness).
    """
    from ..eval.error_analysis import metric_cross_tab

    context = get_context(fast)
    systems = [
        ("DAIL-SQL (GPT-4)", RunConfig(**_DAIL_CONFIG)),
        ("Zero-shot (GPT-4)", RunConfig(model="gpt-4", representation="CR_P")),
        ("Zero-shot (Vicuna-33B)", RunConfig(
            model="vicuna-33b", representation="CR_P")),
    ]
    grid = context.sweep([config for _, config in systems], limit=limit)
    rows: List[dict] = []
    unsound = 0
    for (name, _config), report in zip(systems, grid):
        for tab_row in metric_cross_tab(report.records):
            unsound += int(tab_row["sem_not_ex"])  # type: ignore[call-overload]
            rows.append({"system": name, **tab_row})
    return ExperimentResult(
        artifact_id="metric_audit",
        title="Supplementary: EM × EX × semantic equivalence by hardness",
        rows=rows,
        notes=(
            f"sem ≤ ex holds in every bucket (sem_not_ex={unsound}); "
            "sem_not_em rows are EM false negatives the canonicalizer "
            "sees through, em_not_sem rows are value-masked EM hits "
            "the prover declines to certify."
        ),
    )


def run_pound_sign(fast: bool = False,
                   limit: Optional[int] = None) -> ExperimentResult:
    """The introduction's anecdote: remove OD_P's pound signs.

    OpenAI's SQL-translate demo separates prompt from response with "#";
    the paper notes that removing the sign significantly drops
    performance.  ODX_P is OD_P with identical content and no markers.
    """
    context = get_context(fast)
    models = ("gpt-4", "gpt-3.5-turbo", "vicuna-33b")
    grid = context.sweep(
        [
            RunConfig(model=model, representation=rep, label=f"{model}/{rep}")
            for model in models
            for rep in ("OD_P", "ODX_P")
        ],
        limit=limit,
    )
    rows: List[dict] = []
    for model in models:
        with_pound = grid[f"{model}/OD_P"]
        without = grid[f"{model}/ODX_P"]
        rows.append({
            "model": model,
            "OD_P EX": percent(with_pound.execution_accuracy),
            "no-# EX": percent(without.execution_accuracy),
            "Δ": f"{100 * (without.execution_accuracy - with_pound.execution_accuracy):+.1f}",
        })
    return ExperimentResult(
        artifact_id="pound_sign",
        title="Supplementary: removing OD_P's pound signs (intro anecdote)",
        rows=rows,
        notes=(
            "Stripping the comment markers drops accuracy for every "
            "model, most for the chat model the demo targets."
        ),
    )


def run_token_budget(fast: bool = False,
                     limit: Optional[int] = None) -> ExperimentResult:
    """DAIL-SQL under a hard prompt-token budget.

    DAIL-SQL's pitch is packing useful examples into however much context
    you can afford: as ``max_tokens`` shrinks, the builder drops the
    least-similar examples first.  This sweep shows the accuracy/budget
    frontier and how many examples survive each budget.
    """
    context = get_context(fast)
    budgets = (300, 400, 500, 700, 1000, None)
    grid = context.sweep(
        [
            RunConfig(**{**_DAIL_CONFIG, "k": 8, "max_tokens": budget,
                         "label": f"budget@{budget}"})
            for budget in budgets
        ],
        limit=limit,
    )
    rows: List[dict] = []
    for budget, report in zip(budgets, grid):
        rows.append({
            "max_tokens": budget if budget is not None else "unlimited",
            "avg examples kept": round(report.avg_examples, 2),
            "avg prompt tokens": round(report.avg_prompt_tokens, 1),
            "EX": percent(report.execution_accuracy),
        })
    return ExperimentResult(
        artifact_id="token_budget",
        title="Supplementary: DAIL-SQL under a prompt-token budget (k=8 requested)",
        rows=rows,
        notes=(
            "Accuracy degrades gracefully as the budget shrinks — the "
            "most similar examples are kept, so the first tokens cut are "
            "the cheapest."
        ),
    )


def run_calibration(fast: bool = False,
                    limit: Optional[int] = None) -> ExperimentResult:
    """Reliability diagram of the simulated outcome model.

    Checks that the substrate's success probabilities track realised EX
    frequencies — the simulation's own health metric (docs/simulation.md).
    """
    from ..eval.calibration import model_calibration

    context = get_context(fast)
    rows: List[dict] = []
    summaries = []
    for model in ("gpt-4", "vicuna-33b"):
        llm = make_llm(model, context.runner.oracle)
        config = RunConfig(model=model, representation="CR_P")
        report = model_calibration(llm, context.dev, context.runner, config,
                                   limit=limit)
        for bucket_row in report.rows():
            rows.append({"model": model, **bucket_row})
        summaries.append(
            f"{model}: ECE={report.expected_calibration_error:.3f}, "
            f"Brier={report.brier_score:.3f}"
        )
    return ExperimentResult(
        artifact_id="calibration",
        title="Supplementary: outcome-model reliability diagram",
        rows=rows,
        notes="; ".join(summaries) + (
            " — observed EX per bucket tracks predicted p (item-response "
            "draws are uniform per question)."
        ),
    )


def run_self_correction(fast: bool = False,
                        limit: Optional[int] = None) -> ExperimentResult:
    """Execution-feedback retries on top of zero-shot prompting.

    "Max attempts" N is the candidate search with N - 1 feedback rounds,
    swept on the shared cache; a query counts as repaired when a
    feedback round's candidate won.
    """
    context = get_context(fast)
    configs = [RunConfig(model=model, representation="CR_P", foreign_keys=True)
               for model in ("gpt-4", "vicuna-33b")]
    attempts = (1, 2, 3)
    grids = [
        context.sweep(configs, limit=limit,
                      runner=rounds_runner(context, max_attempts - 1))
        for max_attempts in attempts
    ]
    rows: List[dict] = [
        {
            "model": config.model,
            "max attempts": max_attempts,
            "EX": percent(grid[index].execution_accuracy),
            "queries repaired": sum(
                1 for r in grid[index].records if r.repair_won_round > 0
            ),
        }
        for index, config in enumerate(configs)
        for max_attempts, grid in zip(attempts, grids)
    ]
    return ExperimentResult(
        artifact_id="self_correction",
        title="Supplementary: execution-feedback self-correction (zero-shot)",
        rows=rows,
        notes=(
            "Retries repair outputs that fail lint or execution; the "
            "second attempt carries the whole EX gain for both models, "
            "a third repairs a few more queries that stay wrong."
        ),
    )
