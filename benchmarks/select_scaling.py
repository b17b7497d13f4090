"""How DAIL selection scales with the size of the candidate pool.

The paper selects demonstrations from Spider's ~7,000 training pairs; the
canonical corpus here has 600.  This script builds the seeded corpus with
30, 120 and 300 training pairs per database (pools of 600, 2,400 and
6,000 candidates) and prints, per pool:

* ``select ms/ex``: wall time of one ``DailSelection.select`` call per dev
  example, with the DAIL-SQL leaderboard config's ``k`` and the
  preliminary SQL its pipeline produced;
* ``CPU ms/ex``: process CPU time per example of a serial, cold-cache
  pass of that config over the dev split;
* ``set-up CPU s``: process CPU time to build the corpus, its database
  pool and the run plan (which indexes the pool).

Each figure is the median over ``--passes`` repetitions (select: over
five rounds of the dev split in each).  It is a
measurement, not a test or a gate: run it before and after a change to
selection and compare the curves.  CI runs it with ``--passes 1`` only
to see it run to completion.

Selection scores each class of candidates that share a masked question
and a gold skeleton once (docs/architecture.md §5).  The generator's
templates give these pools about 70 to 115 such classes whatever their
size, so ``select ms/ex`` stays nearly flat from 600 to 6,000 here; on a
pool without duplicate questions it would grow with the pool.  The
set-up column still grows with the pool: it builds and masks every
candidate.

    PYTHONPATH=src python benchmarks/select_scaling.py [--seed 0] [--passes 3]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import statistics
import time

from repro.api import ArtifactCache, BenchmarkRunner, EvalEngine
from repro.core.baselines import leaderboard_entries
from repro.dataset.generator.corpus import build_corpus
from repro.experiments.context import FULL_CONFIG
from repro.obs.trace import NULL_TRACER

#: Training pairs per database; the corpus has 20 training databases.
TRAIN_PER_DB = (30, 120, 300)

#: Timed rounds of select calls over the dev split, per pass.
SELECT_ROUNDS = 5


def measure(seed: int, train_per_db: int, passes: int) -> dict:
    entry = next(e for e in leaderboard_entries() if e.name == "DAIL-SQL (GPT-4)")
    config = entry.config
    setups, selects, cpus = [], [], []
    for _ in range(passes):
        gc.collect()
        start = time.process_time()
        corpus = build_corpus(dataclasses.replace(
            FULL_CONFIG, seed=seed, train_per_db=train_per_db
        ))
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                 seed=seed, cache=ArtifactCache(), repair=False)
        plan = runner.prepare(config, n_samples=entry.n_samples)
        setups.append(time.process_time() - start)
        try:
            examples = runner.examples_for()
            engine = EvalEngine(runner, workers=1, tracer=NULL_TRACER)
            gc.collect()
            start = time.process_time()
            engine.run(config, n_samples=entry.n_samples)
            cpus.append((time.process_time() - start) / len(examples))
            # The pass cached every preliminary SQL; select alone is timed.
            targets = [
                (e.question, e.db_id,
                 runner.pipeline.preliminary_sql(plan, e.question, e.db_id))
                for e in examples
            ]
            for _ in range(SELECT_ROUNDS):
                gc.collect()
                start = time.perf_counter()
                for question, db_id, predicted in targets:
                    plan.strategy.select(question, db_id, config.k, predicted)
                selects.append((time.perf_counter() - start) / len(targets))
        finally:
            corpus.close()
    return {
        "pool": len(corpus.train),
        "select_ms": statistics.median(selects) * 1e3,
        "cpu_ms": statistics.median(cpus) * 1e3,
        "setup_cpu_s": statistics.median(setups),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()
    print("| train_per_db | pool | select ms/ex | CPU ms/ex | set-up CPU s |")
    print("|---|---|---|---|---|")
    for train_per_db in TRAIN_PER_DB:
        row = measure(args.seed, train_per_db, args.passes)
        print(f"| {train_per_db} | {row['pool']:,} | {row['select_ms']:.2f} "
              f"| {row['cpu_ms']:.2f} | {row['setup_cpu_s']:.2f} |", flush=True)


if __name__ == "__main__":
    main()
