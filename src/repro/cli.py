"""Command-line interface: ``dail-sql``.

Subcommands:

* ``experiment <artifact>`` — run one paper table/figure and print it
  (``--fast`` for the reduced corpus, ``--limit N`` for a smoke run).
* ``experiments`` — run every paper artifact.
* ``generate`` — write the synthetic Spider-format corpus
  (``--databases`` adds the SQLite files in the full Spider layout).
* ``validate`` — check a Spider-layout directory (gold queries parse and
  reference known tables/columns).
* ``compare`` — run two configurations and report the paired McNemar /
  bootstrap significance of the difference.
* ``report`` — regenerate every artifact into one Markdown document.
* ``ask`` — translate one question with the DAIL-SQL pipeline against a
  benchmark database.
* ``lint`` — run the schema-aware static analyzer over SQL from a file,
  stdin, or a persisted predictions file, printing diagnostics
  (``--json`` for machine-readable output, ``--repair`` to also show the
  deterministic repair pass).  Exit code 1 when any fatal diagnostic
  fired.
* ``serve`` — boot the long-lived HTTP/JSON service (``POST
  /v1/generate``, ``/v1/lint``, ``/v1/execute``, ``/v1/explain``; ``GET
  /healthz``, ``/metrics``) with a circuit breaker on model calls,
  per-tenant rate limits and per-request deadlines over the same
  artifact cache sweeps use.
* ``models`` — list available model profiles.
* ``cache`` — inspect (``stats``) or wipe (``clear``) the on-disk
  artifact cache that makes sweeps incremental across processes.
* ``trace`` — analyse a run's JSONL trace file: ``summary`` (stage /
  hardness / config-cell tables), ``slowest`` (top spans by duration),
  ``errors`` (failures grouped by error class), ``export`` (Prometheus
  text snapshot), ``correlate <request-id>`` (one serving request's
  full span tree — serve, pipeline stages, model calls).
* ``obs`` — observability v2 tools: ``report`` prints the efficiency
  view (EX next to metered tokens and simulated cost per system, live
  runs reconciled exactly against the metrics registry), ``diff``
  compares two ``BENCH_*.json`` baseline snapshots and exits 1 on
  regressions beyond the threshold.

Evaluation commands accept ``--cache-dir DIR`` (equivalent to the
``REPRO_CACHE_DIR`` environment variable): with a directory configured,
pipeline artifacts — selections, preliminary SQL, generations, executed
rows — persist across invocations, so rerunning an identical sweep is a
warm, generation-free replay.  They also accept ``--trace-dir DIR``
(``REPRO_TRACE_DIR``) to stream a per-run span tree for ``dail-sql
trace``, and ``--progress`` / ``--no-progress`` to force the live
stderr status line on or off (default: shown on a terminal).

Resilience flags (same commands): ``--journal PATH`` checkpoints every
completed example to a JSONL run journal, ``--resume`` restarts an
interrupted sweep from that journal (skipped examples are replayed from
the checkpoint, so the final report is byte-identical to an
uninterrupted run), and ``--chaos RATE`` / ``--chaos-seed N`` inject a
deterministic fault schedule — transient API errors, locked databases,
corrupt cache artifacts — for resilience drills.  Ctrl-C once drains
in-flight work, checkpoints, and writes a report flagged ``partial``;
Ctrl-C twice aborts immediately.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .errors import ReproError


def _apply_workers(args: argparse.Namespace) -> None:
    """Honour a ``--workers N`` flag by raising the sweep default."""
    workers = getattr(args, "workers", None)
    if workers is not None:
        from .experiments.context import set_default_workers

        set_default_workers(workers)


def _apply_cache(args: argparse.Namespace) -> None:
    """Honour a ``--cache-dir DIR`` flag (overrides ``REPRO_CACHE_DIR``)."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        from .cache.store import configure_cache_dir

        configure_cache_dir(cache_dir)


def _apply_trace(args: argparse.Namespace) -> None:
    """Honour a ``--trace-dir DIR`` flag (overrides ``REPRO_TRACE_DIR``)."""
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None:
        from .obs.trace import configure_trace_dir

        configure_trace_dir(trace_dir)


def _apply_progress(args: argparse.Namespace) -> None:
    """Honour ``--progress``/``--no-progress`` (unset = auto on a TTY)."""
    progress = getattr(args, "progress", None)
    if progress is not None:
        from .experiments.context import set_default_progress

        set_default_progress(progress)


def _apply_repair(args: argparse.Namespace) -> None:
    """Honour a ``--repair`` flag by enabling the analyzer repair pass."""
    if getattr(args, "repair", False):
        from .experiments.context import set_default_repair

        set_default_repair(True)


def _apply_feedback_rounds(args: argparse.Namespace) -> None:
    """Honour a ``--feedback-rounds N`` flag by enabling the
    execution-feedback repair loop on subsequently built contexts."""
    rounds = getattr(args, "feedback_rounds", None)
    if rounds is not None:
        from .errors import ExperimentError
        from .experiments.context import set_default_feedback_rounds
        from .repair.feedback import MAX_FEEDBACK_ROUNDS

        if not 0 <= rounds <= MAX_FEEDBACK_ROUNDS:
            raise ExperimentError(
                f"--feedback-rounds must be in [0, {MAX_FEEDBACK_ROUNDS}], "
                f"got {rounds}"
            )
        set_default_feedback_rounds(rounds)


def _apply_backend(args: argparse.Namespace) -> None:
    """Honour a ``--backend NAME`` flag: evaluation pools execute on
    that backend (SQLite reference, DuckDB, or a dialect emulation)."""
    backend = getattr(args, "backend", None)
    if backend is not None:
        from .experiments.context import set_default_backend

        set_default_backend(backend)


def _apply_resilience(args: argparse.Namespace) -> None:
    """Honour ``--journal``/``--resume``/``--chaos`` and install the
    two-stage SIGINT handler (first Ctrl-C drains and checkpoints,
    second aborts)."""
    from .errors import ExperimentError
    from .experiments.context import set_default_chaos, set_default_journal
    from .resilience.interrupt import default_controller

    journal = getattr(args, "journal", None)
    resume = bool(getattr(args, "resume", False))
    if resume and journal is None:
        raise ExperimentError("--resume requires --journal PATH")
    if journal is not None:
        set_default_journal(journal, resume=resume)
    chaos_rate = getattr(args, "chaos", None)
    if chaos_rate is not None:
        from .resilience.chaos import ChaosPolicy

        if not 0.0 <= chaos_rate <= 1.0:
            raise ExperimentError(
                f"--chaos rate must be in [0, 1], got {chaos_rate}"
            )
        set_default_chaos(
            ChaosPolicy.uniform(
                chaos_rate, seed=getattr(args, "chaos_seed", 0)
            )
        )
    default_controller().install()


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment

    _apply_workers(args)
    _apply_cache(args)
    _apply_trace(args)
    _apply_progress(args)
    _apply_repair(args)
    _apply_feedback_rounds(args)
    _apply_backend(args)
    _apply_resilience(args)
    result = run_experiment(args.artifact, fast=args.fast, limit=args.limit)
    print(result.render())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import run_all

    _apply_workers(args)
    _apply_cache(args)
    _apply_trace(args)
    _apply_progress(args)
    _apply_repair(args)
    _apply_feedback_rounds(args)
    _apply_backend(args)
    _apply_resilience(args)
    for result in run_all(fast=args.fast, limit=args.limit):
        print(result.render())
        print()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .dataset import CorpusConfig, build_corpus

    corpus = build_corpus(
        CorpusConfig(
            seed=args.seed,
            train_per_db=args.train_per_db,
            dev_per_db=args.dev_per_db,
        )
    )
    if args.databases:
        from .dataset.export import export_spider_layout

        export_spider_layout(corpus, args.output)
        extra = " (full Spider layout incl. SQLite databases)"
    else:
        corpus.train.save(args.output)
        corpus.dev.save(args.output)
        extra = ""
    print(
        f"wrote {len(corpus.train)} train / {len(corpus.dev)} dev examples "
        f"over {len(corpus.rows)} databases to {args.output}{extra}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Run two configurations and test the paired difference."""
    from .eval.harness import RunConfig
    from .eval.significance import compare_reports
    from .experiments.context import get_context

    _apply_cache(args)
    _apply_trace(args)
    _apply_progress(args)
    _apply_repair(args)
    _apply_feedback_rounds(args)
    _apply_backend(args)
    _apply_resilience(args)
    context = get_context(fast=args.fast)

    def parse_config(spec: str) -> RunConfig:
        # spec: model:representation[:selection+organization@k]
        parts = spec.split(":")
        model, representation = parts[0], parts[1] if len(parts) > 1 else "CR_P"
        selection = organization = None
        k = 0
        if len(parts) > 2 and parts[2]:
            strategy, _, shot = parts[2].partition("@")
            selection, _, organization = strategy.partition("+")
            k = int(shot or 5)
        return RunConfig(
            model=model, representation=representation,
            selection=selection or None,
            organization=organization or "FI_O", k=k,
        )

    _apply_workers(args)
    config_a = parse_config(args.a)
    config_b = parse_config(args.b)
    report_a, report_b = context.sweep([config_a, config_b], limit=args.limit)
    comparison = compare_reports(report_a, report_b)
    print(f"A: {config_a.resolved_label()}  EX={report_a.execution_accuracy:.3f}")
    print(f"B: {config_b.resolved_label()}  EX={report_b.execution_accuracy:.3f}")
    print(
        f"delta={comparison.delta:+.3f}  "
        f"discordant A-only/B-only={comparison.a_only}/{comparison.b_only}  "
        f"McNemar p={comparison.p_value:.4f}  "
        f"95% CI [{comparison.ci_low:+.3f}, {comparison.ci_high:+.3f}]  "
        f"{'SIGNIFICANT' if comparison.significant else 'not significant'}"
    )
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    from .core.dail_sql import DailSQL
    from .experiments.context import get_context
    from .llm.oracle import GoldOracle
    from .llm.simulated import make_llm

    context = get_context(fast=args.fast)
    oracle = GoldOracle(context.dev, context.train)
    llm = make_llm(args.model, oracle)
    pipeline = DailSQL(llm, context.train, k=args.k)
    schema = context.dev.schema(args.db)
    database = context.corpus.pool().get(args.db)
    result = pipeline.generate_sql(schema, args.question, database=database)
    print(f"-- model: {args.model}, examples used: {result.n_examples}")
    print(result.sql)
    rows = database.try_execute(result.sql)
    if rows is not None:
        for row in rows[:10]:
            print(row)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Validate a Spider-layout directory (ours or a real download)."""
    from .dataset.export import load_spider_layout
    from .dataset.spider import validate_dataset

    train, dev, databases = load_spider_layout(args.directory)
    problems = validate_dataset(train) + validate_dataset(dev)
    print(f"{len(train)} train / {len(dev)} dev examples, "
          f"{len(databases)} database files")
    if problems:
        for problem in problems[:args.max_problems]:
            print(f"  PROBLEM: {problem}")
        print(f"{len(problems)} problem(s) found")
        return 1
    print("all gold queries parse and reference known tables/columns")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.markdown import write_report

    _apply_workers(args)
    _apply_cache(args)
    _apply_trace(args)
    _apply_progress(args)
    _apply_repair(args)
    _apply_feedback_rounds(args)
    _apply_backend(args)
    _apply_resilience(args)
    path = write_report(
        args.output, fast=args.fast, limit=args.limit,
        include_supplementary=not args.paper_only,
    )
    print(f"wrote benchmark report to {path}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk artifact cache."""
    from .cache.store import DiskTier, resolved_cache_dir

    _apply_cache(args)
    root = resolved_cache_dir()
    if root is None:
        print(
            "error: no cache directory configured "
            "(pass --cache-dir or set REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    tier = DiskTier(root)

    if args.action == "clear":
        removed = tier.clear()
        print(f"cleared {removed} cached artifact(s) from {root}")
        return 0

    sizes = tier.stats()
    counters = tier.read_counters()
    stages = sorted(set(sizes) | set(counters))
    print(f"cache directory: {root}")
    backends = tier.read_backends()
    if backends:
        print(f"backends: {', '.join(backends)}")
    if not stages:
        print("(empty)")
        return 0
    header = (
        f"{'stage':<12} {'entries':>8} {'bytes':>12} "
        f"{'hits':>8} {'misses':>8} {'hit rate':>9}"
    )
    print(header)
    total_entries = 0
    total_bytes = 0
    for stage in stages:
        size = sizes.get(stage, {})
        entries = size.get("entries", 0)
        nbytes = size.get("bytes", 0)
        total_entries += entries
        total_bytes += nbytes
        stage_counters = counters.get(stage, {})
        hits = stage_counters.get("hits", 0)
        misses = stage_counters.get("misses", 0)
        rate = f"{hits / (hits + misses):8.1%}" if hits + misses else f"{'-':>8}"
        print(
            f"{stage:<12} {entries:>8} {nbytes:>12} "
            f"{hits:>8} {misses:>8} {rate:>9}"
        )
    print(f"{'total':<12} {total_entries:>8} {total_bytes:>12}")
    return 0


def _format_s(value: float) -> str:
    if value >= 1.0:
        return f"{value:7.2f}s "
    return f"{value * 1000:7.1f}ms"


def _cmd_trace(args: argparse.Namespace) -> int:
    """Analyse a run's JSONL trace file (or a directory of them)."""
    from .obs import tracefile

    if args.action == "correlate":
        # Here the positional is the request id; the trace location is
        # the optional second positional (default: configured trace dir).
        from .obs.trace import resolved_trace_dir

        location = args.path if args.path is not None else resolved_trace_dir()
        if location is None:
            print(
                "error: no trace location given and no trace directory "
                "configured (pass a path, or set --trace-dir / "
                "$REPRO_TRACE_DIR)",
                file=sys.stderr,
            )
            return 1
        spans = tracefile.load_spans(location)
        tree = tracefile.correlate(spans, args.trace)
        print(tracefile.format_span_tree(tree))
        return 0

    spans = tracefile.load_spans(args.trace)

    if args.action == "export":
        text = tracefile.to_prometheus(spans)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote Prometheus snapshot to {args.output}")
        else:
            print(text, end="")
        return 0

    if args.action == "slowest":
        rows = tracefile.slowest(spans, kind=args.kind, top=args.top)
        print(f"{'dur':>9}  {args.kind}")
        for span in rows:
            extra = ""
            if args.kind == "example":
                hardness = span.get("attrs", {}).get("hardness", "")
                cell = span.get("attrs", {}).get("cell", "")
                extra = f"  [{hardness}] {cell}"
            print(f"{_format_s(float(span.get('dur_s', 0.0)))}  "
                  f"{span.get('name')}{extra}")
        return 0

    if args.action == "errors":
        groups = tracefile.error_groups(spans)
        if not groups:
            print("no errored examples in trace")
            return 0
        for group in groups:
            print(f"{group['error_class']}: {group['count']} example(s)")
            for example in group["examples"][:args.top]:
                print(f"  {example}")
            for message in group["messages"][:3]:
                print(f"  > {message}")
        return 0

    # summary
    info = tracefile.run_info(spans)
    if info:
        backend = f", backend {info['backend']}" if info.get("backend") else ""
        print(
            f"run: {info['configs']} config(s) x {info['examples']} "
            f"example(s), {info['workers']} worker(s), "
            f"{info['duration_s']:.2f}s wall-clock{backend}"
        )
    print(f"\n{'stage':<10} {'count':>6} {'total':>9} {'share':>6} "
          f"{'p50':>9} {'p95':>9}")
    for row in tracefile.stage_summary(spans):
        print(
            f"{row['stage']:<10} {row['count']:>6} "
            f"{row['total_s']:>8.3f}s {row['share']:>6.1%} "
            f"{_format_s(row['p50_s'])} {_format_s(row['p95_s'])}"
        )
    hardness_rows = tracefile.hardness_summary(spans)
    if hardness_rows:
        print(f"\n{'hardness':<10} {'count':>6} {'total':>9} "
              f"{'p50':>9} {'p95':>9} {'errors':>7}")
        for row in hardness_rows:
            print(
                f"{row['hardness']:<10} {row['count']:>6} "
                f"{row['total_s']:>8.3f}s {_format_s(row['p50_s'])} "
                f"{_format_s(row['p95_s'])} {row['errors']:>7}"
            )
    cell_rows = tracefile.cell_summary(spans)
    if len(cell_rows) > 1:
        print(f"\n{'count':>6} {'total':>9} {'p50':>9} {'errors':>7}  cell")
        for row in cell_rows:
            print(
                f"{row['count']:>6} {row['total_s']:>8.3f}s "
                f"{_format_s(row['p50_s'])} {row['errors']:>7}  {row['cell']}"
            )
    return 0


def _print_efficiency_rows(rows: List[dict]) -> None:
    print(
        f"{'system':<36} {'n':>4} {'ex':>7} {'prompt':>9} {'compl':>8} "
        f"{'cost_usd':>10} {'ex/1k tok':>10}"
    )
    for row in rows:
        print(
            f"{str(row['label'])[:36]:<36} {row['n']:>4} {row['ex']:>7.4f} "
            f"{row['prompt_tokens']:>9} {row['completion_tokens']:>8} "
            f"{row['cost_usd']:>10.6f} {row['ex_per_1k_tokens']:>10.4f}"
        )


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """The efficiency view: EX next to metered tokens/cost per system.

    With a reports directory, reads persisted reports.  Without one,
    runs a live smoke sweep into a private registry and verifies the
    per-cell telemetry reconciles *exactly* with the registry's
    ``repro_llm_*`` counters (exit 1 on any mismatch).
    """
    import math

    if args.reports is not None:
        from .eval.persistence import load_reports

        reports = load_reports(args.reports)
        if not reports:
            print(f"no reports in {args.reports}", file=sys.stderr)
            return 1
        _print_efficiency_rows([r.efficiency_summary() for r in reports])
        return 0

    _apply_cache(args)
    from .eval.engine import GridRunner
    from .eval.harness import RunConfig
    from .experiments.context import get_context
    from .obs.metrics import M_LLM_COST, M_LLM_TOKENS, MetricsRegistry

    context = get_context(args.fast)
    registry = MetricsRegistry()
    configs = [
        RunConfig(model="gpt-4", representation="CR_P",
                  organization="DAIL_O", selection="DAIL_S", k=4,
                  foreign_keys=True, label="DAIL-SQL (gpt-4)"),
        RunConfig(model="gpt-4", representation="CR_P",
                  label="Zero-shot (gpt-4)"),
        RunConfig(model="llama-33b", representation="CR_P",
                  label="Zero-shot (llama-33b)"),
    ]
    grid = GridRunner(
        context.runner, workers=args.workers or 1, registry=registry
    ).sweep(configs, limit=args.limit)
    reports = list(grid)
    _print_efficiency_rows([r.efficiency_summary() for r in reports])

    # Reconcile: per-cell telemetry was frozen *from* this registry, so
    # the sums must agree to the integer (cost to float epsilon).
    sum_prompt = sum(r.metered_prompt_tokens for r in reports)
    sum_completion = sum(r.metered_completion_tokens for r in reports)
    sum_cost = sum(r.cost_usd for r in reports)
    reg_prompt = int(registry.counter_value(M_LLM_TOKENS, {"kind": "prompt"}))
    reg_completion = int(
        registry.counter_value(M_LLM_TOKENS, {"kind": "completion"})
    )
    reg_cost = registry.counter_value(M_LLM_COST)
    ok = (
        sum_prompt == reg_prompt
        and sum_completion == reg_completion
        and math.isclose(sum_cost, reg_cost, rel_tol=1e-9, abs_tol=1e-12)
    )
    print(
        f"\n/metrics reconciliation: telemetry {sum_prompt}+{sum_completion} "
        f"tokens / ${sum_cost:.6f} vs registry {reg_prompt}+{reg_completion} "
        f"tokens / ${reg_cost:.6f} — {'OK' if ok else 'MISMATCH'}"
    )
    return 0 if ok else 1


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """Compare two baseline snapshots; exit 1 on regressions."""
    from .obs.baseline import diff_baselines, format_diff, load_baseline

    baseline = load_baseline(args.baseline)
    current = load_baseline(args.current)
    regressions, rows = diff_baselines(
        baseline, current, threshold=args.threshold
    )
    print(format_diff(rows))
    if regressions:
        names = ", ".join(row.metric for row in regressions)
        print(
            f"\n{len(regressions)} regression(s) beyond the "
            f"{args.threshold:g} threshold: {names}",
            file=sys.stderr,
        )
        return 1
    print("\nno regressions")
    return 0


def _lint_entries(args: argparse.Namespace) -> List[tuple]:
    """Resolve the lint inputs into ``(db_id, label, sql)`` triples.

    Three sources: a SQL file, ``-`` for stdin (both need ``--db``), or
    ``--predictions`` pointing at a persisted report (JSON, any
    supported format version) or a record-per-line JSONL file — records
    carry their own ``db_id`` and ``predicted_sql``.
    """
    import json as jsonlib

    from .errors import ReproError

    if args.predictions:
        path = args.source
        try:
            from .eval.persistence import load_report

            report = load_report(path)
            return [
                (r.db_id, r.example_id, r.predicted_sql)
                for r in report.records
            ]
        except ReproError:
            pass  # not a report file — fall through to JSONL
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                record = jsonlib.loads(line)
                entries.append((
                    str(record["db_id"]),
                    str(record.get("example_id", f"line-{index + 1}")),
                    str(record.get("predicted_sql", record.get("sql", ""))),
                ))
        return entries
    if not args.db:
        raise ReproError("--db is required unless --predictions is given")
    if args.source == "-":
        sql = sys.stdin.read()
        label = "<stdin>"
    else:
        with open(args.source, "r", encoding="utf-8") as handle:
            sql = handle.read()
        label = args.source
    return [(args.db, label, sql)]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer over SQL and print diagnostics."""
    import json as jsonlib

    from .analysis import analyze, repair
    from .errors import ReproError
    from .experiments.context import get_context
    from .sql.dialect import REFERENCE_DIALECT

    context = get_context(fast=args.fast)

    def schema_for(db_id: str):
        for dataset in (context.dev, context.train):
            if dataset is not None and db_id in dataset.schemas:
                return dataset.schema(db_id)
        raise ReproError(
            f"unknown database id {db_id!r} (not in the benchmark corpus)"
        )

    dialect = getattr(args, "dialect", None)
    outputs = []
    any_fatal = False
    for db_id, label, sql in _lint_entries(args):
        schema = schema_for(db_id)
        result = analyze(schema, sql.strip(), dialect=dialect)
        entry = {
            "source": label,
            "db_id": db_id,
            "analysis": result.to_dict(),
            "fatal": result.fatal,
        }
        # Canonicalization (like repair) assumes the reference grammar.
        if (
            getattr(args, "semantic", False)
            and (dialect or REFERENCE_DIALECT) == REFERENCE_DIALECT
        ):
            from .sql.canonical import canonical_fingerprint, canonicalize
            from .sql.unparse import unparse

            fingerprint = canonical_fingerprint(sql.strip(), schema)
            if fingerprint is not None:
                entry["canonical_sql"] = unparse(
                    canonicalize(sql.strip(), schema)
                )
                entry["fingerprint"] = fingerprint
        # The repair pass rewrites reference-dialect SQL only.
        do_repair = (
            args.repair and (dialect or REFERENCE_DIALECT) == REFERENCE_DIALECT
        )
        if do_repair and result.diagnostics:
            fixed = repair(schema, sql.strip())
            if fixed.changed:
                rechecked = analyze(schema, fixed.sql)
                entry["repaired_sql"] = fixed.sql
                entry["repair_applied"] = list(fixed.applied)
                entry["repaired_analysis"] = rechecked.to_dict()
                entry["fatal"] = rechecked.fatal
        any_fatal = any_fatal or bool(entry["fatal"])
        outputs.append(entry)

    if args.json:
        print(jsonlib.dumps(outputs, indent=1))
        return 1 if any_fatal else 0

    clean = 0
    for entry in outputs:
        diagnostics = entry["analysis"]["diagnostics"]
        if not diagnostics and "repaired_sql" not in entry:
            clean += 1
            if "canonical_sql" in entry:
                print(f"{entry['source']} ({entry['db_id']}): clean")
                print(f"  canonical: {entry['canonical_sql']}")
            continue
        if entry["fatal"]:
            verdict = "FATAL"
        elif "repaired_sql" in entry:
            verdict = "repaired"
        else:
            verdict = "ok"
        print(f"{entry['source']} ({entry['db_id']}): "
              f"{len(diagnostics)} diagnostic(s), {verdict}")
        for diag in diagnostics:
            fix = f" (fix: {diag['fix']})" if diag["fix"] else ""
            print(f"  {diag['severity']}[{diag['rule']}] "
                  f"{diag['message']}{fix}")
        if "canonical_sql" in entry:
            print(f"  canonical: {entry['canonical_sql']}")
        if "repaired_sql" in entry:
            applied = ", ".join(entry["repair_applied"])
            print(f"  repaired [{applied}]: {entry['repaired_sql']}")
            for diag in entry["repaired_analysis"]["diagnostics"]:
                print(f"    after repair: {diag['severity']}"
                      f"[{diag['rule']}] {diag['message']}")
    if clean:
        print(f"{clean} statement(s) clean")
    return 1 if any_fatal else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP serving layer over the benchmark context."""
    from .eval.harness import RunConfig
    from .serve import build_server

    _apply_cache(args)
    _apply_backend(args)
    _apply_trace(args)
    _apply_feedback_rounds(args)
    config = None
    if args.model or args.k is not None:
        config = RunConfig(
            model=args.model or "gpt-4",
            representation="CR_P",
            organization="DAIL_O",
            selection="DAIL_S" if (args.k is None or args.k > 0) else None,
            k=args.k if args.k is not None else 4,
            foreign_keys=True,
        )
    server = build_server(
        fast=args.fast, host=args.host, port=args.port, config=config,
        access_log_path=args.access_log,
    )
    host, port = server.address
    model = server.service.plan.config.model
    print(f"dail-sql serve: {model} on http://{host}:{port}", file=sys.stderr)
    print(
        "endpoints: POST /v1/generate /v1/lint /v1/execute /v1/explain, "
        "GET /healthz /metrics (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from .llm.profiles import get_profile, list_models

    for model_id in list_models():
        profile = get_profile(model_id)
        print(
            f"{model_id:18s} family={profile.family:7s} "
            f"scale={profile.scale_b:>7.0f}B alignment={profile.alignment:.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dail-sql",
        description="DAIL-SQL benchmark reproduction (VLDB 2024)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    workers_help = "worker threads for evaluation sweeps (default 1)"
    cache_help = (
        "directory for the persistent artifact cache "
        "(overrides $REPRO_CACHE_DIR; makes reruns incremental)"
    )
    trace_help = (
        "directory for JSONL trace files (overrides $REPRO_TRACE_DIR; "
        "each run streams a span tree readable with `dail-sql trace`)"
    )

    def add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--trace-dir", default=None, help=trace_help)
        group = sub_parser.add_mutually_exclusive_group()
        group.add_argument(
            "--progress", dest="progress", action="store_true", default=None,
            help="force the live status line on stderr on",
        )
        group.add_argument(
            "--no-progress", dest="progress", action="store_false",
            help="suppress the live status line (default follows the TTY)",
        )

    repair_help = (
        "enable the analyzer's deterministic repair pass: predictions "
        "with diagnostics are rewritten (schema-spelled identifiers, "
        "qualified columns, trailing junk dropped) before execution"
    )

    def add_repair_flag(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--repair", action="store_true", help=repair_help
        )
        sub_parser.add_argument(
            "--feedback-rounds", type=int, default=None, metavar="N",
            help="enable the execution-feedback repair loop: candidates "
                 "that die (fatal lint diagnostic or execution error) "
                 "are regenerated from their structured diagnostics, up "
                 "to N rounds per example (0 disables; deterministic "
                 "and fully cached/journaled)",
        )

    def add_backend_flag(sub_parser: argparse.ArgumentParser) -> None:
        from .db.backends import backend_names

        sub_parser.add_argument(
            "--backend", default=None, choices=backend_names(),
            help="execution backend for evaluation pools: the SQLite "
                 "reference, DuckDB (needs the duckdb package), or a "
                 "dialect-profile emulation (postgres/mysql/tsql); "
                 "cache and journal entries stay disjoint per backend",
        )

    def add_resilience_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--journal", default=None, metavar="PATH",
            help="checkpoint completed records to this JSONL journal; "
                 "an interrupted sweep can then restart with --resume",
        )
        sub_parser.add_argument(
            "--resume", action="store_true",
            help="resume from the --journal file: already-journaled "
                 "examples are skipped, the report is byte-identical to "
                 "an uninterrupted run",
        )
        sub_parser.add_argument(
            "--chaos", type=float, default=None, metavar="RATE",
            help="inject deterministic faults (transient API errors, "
                 "locked databases, corrupt cache artifacts) at this "
                 "per-decision rate in [0,1] — a seeded resilience drill",
        )
        sub_parser.add_argument(
            "--chaos-seed", type=int, default=0, metavar="N",
            help="seed of the --chaos fault schedule (same seed, same faults)",
        )

    p_exp = sub.add_parser("experiment", help="run one paper table/figure")
    p_exp.add_argument("artifact", help="e.g. table1, figure4")
    p_exp.add_argument("--fast", action="store_true")
    p_exp.add_argument("--limit", type=int, default=None)
    p_exp.add_argument("--workers", type=int, default=None, help=workers_help)
    p_exp.add_argument("--cache-dir", default=None, help=cache_help)
    add_obs_flags(p_exp)
    add_repair_flag(p_exp)
    add_backend_flag(p_exp)
    add_resilience_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_all = sub.add_parser("experiments", help="run every paper artifact")
    p_all.add_argument("--fast", action="store_true")
    p_all.add_argument("--limit", type=int, default=None)
    p_all.add_argument("--workers", type=int, default=None, help=workers_help)
    p_all.add_argument("--cache-dir", default=None, help=cache_help)
    add_obs_flags(p_all)
    add_repair_flag(p_all)
    add_backend_flag(p_all)
    add_resilience_flags(p_all)
    p_all.set_defaults(func=_cmd_experiments)

    p_gen = sub.add_parser("generate", help="write the synthetic corpus")
    p_gen.add_argument("output", help="output directory")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--train-per-db", type=int, default=30)
    p_gen.add_argument("--dev-per-db", type=int, default=24)
    p_gen.add_argument(
        "--databases", action="store_true",
        help="also write SQLite files in the full Spider layout",
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_cmp = sub.add_parser(
        "compare",
        help="paired significance test between two configurations "
             "(spec: model:representation[:selection+organization@k])",
    )
    p_cmp.add_argument("a", help="e.g. gpt-4:CR_P:DAIL_S+DAIL_O@5")
    p_cmp.add_argument("b", help="e.g. gpt-4:CR_P")
    p_cmp.add_argument("--fast", action="store_true")
    p_cmp.add_argument("--limit", type=int, default=None)
    p_cmp.add_argument("--workers", type=int, default=None, help=workers_help)
    p_cmp.add_argument("--cache-dir", default=None, help=cache_help)
    add_obs_flags(p_cmp)
    add_repair_flag(p_cmp)
    add_backend_flag(p_cmp)
    add_resilience_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ask = sub.add_parser("ask", help="run DAIL-SQL on one question")
    p_ask.add_argument("db", help="database id, e.g. concert_singer")
    p_ask.add_argument("question")
    p_ask.add_argument("--model", default="gpt-4")
    p_ask.add_argument("--k", type=int, default=5)
    p_ask.add_argument("--fast", action="store_true")
    p_ask.set_defaults(func=_cmd_ask)

    p_val = sub.add_parser(
        "validate", help="validate a Spider-layout directory"
    )
    p_val.add_argument("directory")
    p_val.add_argument("--max-problems", type=int, default=20)
    p_val.set_defaults(func=_cmd_validate)

    p_report = sub.add_parser(
        "report", help="regenerate all artifacts into a Markdown report"
    )
    p_report.add_argument("output", help="output .md path")
    p_report.add_argument("--fast", action="store_true")
    p_report.add_argument("--limit", type=int, default=None)
    p_report.add_argument("--paper-only", action="store_true",
                          help="skip the supplementary analyses")
    p_report.add_argument("--workers", type=int, default=None,
                          help=workers_help)
    p_report.add_argument("--cache-dir", default=None, help=cache_help)
    add_obs_flags(p_report)
    add_repair_flag(p_report)
    add_backend_flag(p_report)
    add_resilience_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_lint = sub.add_parser(
        "lint",
        help="run the schema-aware static analyzer over SQL",
        description=(
            "Analyze SQL against a benchmark database schema.  Reads a "
            ".sql file, stdin (source '-'), or — with --predictions — a "
            "persisted report JSON / records JSONL whose entries carry "
            "their own db_id.  Exit code 1 when any fatal diagnostic "
            "fired, 0 otherwise."
        ),
    )
    p_lint.add_argument(
        "source",
        help="SQL file path, '-' for stdin, or a predictions file "
             "(with --predictions)",
    )
    p_lint.add_argument(
        "--db", default=None,
        help="database id the SQL targets, e.g. concert_singer "
             "(required unless --predictions)",
    )
    p_lint.add_argument(
        "--predictions", action="store_true",
        help="treat SOURCE as a persisted report (JSON) or "
             "record-per-line JSONL; each record's own db_id is used",
    )
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    p_lint.add_argument("--repair", action="store_true",
                        help="also run the deterministic repair pass and "
                             "show the rewritten SQL + its re-analysis")
    p_lint.add_argument("--semantic", action="store_true",
                        help="also show each statement's canonical "
                             "logical form and equivalence-class "
                             "fingerprint (sem:* satisfiability rules "
                             "run either way; reference dialect only)")
    from .sql.dialect import REFERENCE_DIALECT, dialect_names

    p_lint.add_argument("--dialect", default=REFERENCE_DIALECT,
                        choices=dialect_names(),
                        help="SQL dialect the statements are written in "
                             "(dialect-specific rules apply, e.g. "
                             "double-quoted string literals are fatal on "
                             "postgres); default %(default)s")
    p_lint.add_argument("--fast", action="store_true",
                        help="use the reduced benchmark corpus")
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="serve text-to-SQL over HTTP/JSON",
        description=(
            "Boot a long-lived HTTP service over the benchmark context: "
            "POST /v1/generate, /v1/lint, /v1/execute, /v1/explain plus "
            "GET /healthz and /metrics (Prometheus text).  Requests are "
            "rate-limited per tenant, bounded by per-request deadlines, "
            "and share the artifact cache with batch sweeps — pass "
            "--cache-dir to serve from (and extend) a warmed disk cache."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="bind port (0 picks a free port)")
    p_serve.add_argument("--model", default=None,
                         help="model profile to serve (default gpt-4)")
    p_serve.add_argument("--k", type=int, default=None,
                         help="in-context examples per prompt "
                              "(0 for zero-shot; default 4)")
    p_serve.add_argument("--fast", action="store_true",
                         help="use the reduced benchmark corpus")
    p_serve.add_argument("--cache-dir", default=None, help=cache_help)
    p_serve.add_argument("--trace-dir", default=None, help=trace_help)
    p_serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one JSON line per request (request id, tenant, "
             "status, latency, tokens) to this file; off by default",
    )
    p_serve.add_argument(
        "--feedback-rounds", type=int, default=None, metavar="N",
        help="server default for the execution-feedback repair loop on "
             "/v1/generate (requests may override per call via the wire "
             "'feedback_rounds' field)",
    )
    add_backend_flag(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_models = sub.add_parser("models", help="list model profiles")
    p_models.set_defaults(func=_cmd_models)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    p_cache.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entries/bytes/hit-rates by stage; clear: wipe it",
    )
    p_cache.add_argument("--cache-dir", default=None, help=cache_help)
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser(
        "trace", help="analyse a run's JSONL trace file"
    )
    p_trace.add_argument(
        "action",
        choices=("summary", "slowest", "errors", "export", "correlate"),
        help="summary: stage/hardness/cell tables; slowest: top spans by "
             "duration; errors: failures grouped by error class; export: "
             "Prometheus text snapshot; correlate: one serving request's "
             "full span tree by request id",
    )
    p_trace.add_argument(
        "trace",
        help="trace .jsonl file, or a directory of them (a --trace-dir); "
             "for `correlate`, the request id (X-Request-Id) instead",
    )
    p_trace.add_argument(
        "path", nargs="?", default=None,
        help="for `correlate`: trace file/directory to search "
             "(default: the configured trace directory)",
    )
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows to show (slowest/errors)")
    p_trace.add_argument("--kind", default="example",
                         choices=("run", "cell", "example", "stage"),
                         help="span kind ranked by `slowest`")
    p_trace.add_argument("--prometheus", action="store_true",
                         help="export format (currently the only one)")
    p_trace.add_argument("-o", "--output", default=None,
                         help="write `export` output to a file")
    p_trace.set_defaults(func=_cmd_trace)

    p_obs = sub.add_parser(
        "obs",
        help="observability v2: cost/efficiency report, baseline diff",
        description=(
            "Cross-cutting observability tools: `report` prints the "
            "EX-per-token efficiency view (from persisted reports, or a "
            "live smoke sweep whose telemetry is verified against the "
            "metrics registry); `diff` compares two BENCH_*.json "
            "baseline snapshots and exits 1 on regressions."
        ),
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="EX next to metered tokens / simulated cost per system",
    )
    p_obs_report.add_argument(
        "reports", nargs="?", default=None,
        help="directory of persisted report JSON files; omitted → run a "
             "live smoke sweep and reconcile telemetry against /metrics",
    )
    p_obs_report.add_argument("--fast", action="store_true",
                              help="use the reduced benchmark corpus")
    p_obs_report.add_argument("--limit", type=int, default=None,
                              help="examples per config in live mode")
    p_obs_report.add_argument("--workers", type=int, default=None,
                              help=workers_help)
    p_obs_report.add_argument("--cache-dir", default=None, help=cache_help)
    p_obs_report.set_defaults(func=_cmd_obs_report)
    p_obs_diff = obs_sub.add_parser(
        "diff", help="compare two baseline snapshots (exit 1 on regression)"
    )
    p_obs_diff.add_argument("baseline", help="reference BENCH_*.json")
    p_obs_diff.add_argument("current", help="candidate BENCH_*.json")
    p_obs_diff.add_argument(
        "--threshold", type=float, default=0.1,
        help="allowed relative slip per gated metric (default %(default)s)",
    )
    p_obs_diff.set_defaults(func=_cmd_obs_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
