"""Serving-layer load generator: closed-loop clients against SqlServer.

Boots a real :class:`~repro.serve.http.SqlServer` (threaded, port 0)
over a fresh synthetic corpus and drives ``POST /v1/generate`` with N
closed-loop clients — each thread issues its next request only after
the previous one completes, so offered load adapts to service capacity
instead of overrunning it.  Two passes over the same question set:

* **cold** — every generation misses the artifact cache and pays the
  (simulated) LLM latency, each paid on its request's own thread, so
  concurrent misses overlap;
* **warm** — the same questions again, now artifact-cache hits.

Each pass reports p50/p99 latency and sustained QPS.  Before either
pass, a handful of *sequential* requests establishes the
single-request baseline: what one isolated, uncached question costs.
Run as::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke

``--smoke`` is the CI gate: it exits non-zero unless the server
sustains ``--clients`` (default 8) concurrent clients with zero dropped
requests, warm-cache p99 under ``--p99-factor`` (default 5×) the
single-request baseline, and a ``/metrics`` export that parses and
carries the request/latency series.

The service is built with a deliberately generous rate limiter — this
is a load generator, so the tenant budget must not be the bottleneck
(`tests/serve` covers 429 behaviour).

``--trace-dir`` turns on request-correlated JSONL tracing for the run
(every request gets a minted ``req-<n>`` id; ``dail-sql trace
correlate req-1 <dir>`` reconstructs its span tree afterwards).
``--baseline-out BENCH_serve.json`` snapshots the warm-pass latency,
throughput and token-efficiency metrics via :mod:`repro.obs.baseline`;
``--baseline-compare`` diffs against a prior snapshot and exits
non-zero when a metric slips past ``--baseline-threshold``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

from repro.dataset.generator.corpus import CorpusConfig, build_corpus
from repro.eval.harness import BenchmarkRunner
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.serve import RateLimiter, SqlServer, SqlService


def percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def post_generate(base, question, db_id, timeout=60):
    request = urllib.request.Request(
        base + "/v1/generate",
        data=json.dumps({"question": question, "db_id": db_id}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class ClosedLoopClient(threading.Thread):
    """One client: request, wait for the answer, request again."""

    def __init__(self, base, work, latencies, errors, lock):
        super().__init__(daemon=True)
        self.base = base
        self.work = work
        self.latencies = latencies
        self.errors = errors
        self.lock = lock

    def run(self):
        for question, db_id in self.work:
            started = time.perf_counter()
            try:
                status, payload = post_generate(self.base, question, db_id)
                ok = status == 200 and bool(payload.get("sql"))
            except (urllib.error.URLError, OSError, ValueError) as exc:
                ok, payload = False, {"error": repr(exc)}
            elapsed = time.perf_counter() - started
            with self.lock:
                if ok:
                    self.latencies.append(elapsed)
                else:
                    self.errors.append(payload)


def run_pass(base, requests, clients):
    """Drive the request list with N closed-loop clients; return stats."""
    latencies, errors = [], []
    lock = threading.Lock()
    shards = [requests[i::clients] for i in range(clients)]
    threads = [
        ClosedLoopClient(base, shard, latencies, errors, lock)
        for shard in shards if shard
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "requests": len(requests),
        "completed": len(latencies),
        "dropped": len(errors),
        "errors": errors,
        "p50": percentile(latencies, 0.50),
        "p99": percentile(latencies, 0.99),
        "qps": len(latencies) / wall if wall > 0 else 0.0,
        "wall": wall,
    }


def report(label, stats):
    print(
        f"{label:<14} {stats['completed']:>4}/{stats['requests']:<4} ok  "
        f"p50 {stats['p50'] * 1e3:7.1f} ms  "
        f"p99 {stats['p99'] * 1e3:7.1f} ms  "
        f"{stats['qps']:6.1f} QPS  "
        f"({stats['dropped']} dropped)"
    )


def metrics_gate(base):
    """The /metrics export parses and carries the serving series.

    Returns the parsed samples so the caller can derive baseline
    metrics (token totals) from the same snapshot it gated on.
    """
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    samples = parse_prometheus(text)  # strict: raises on malformed lines
    names = {name for name, _, _ in samples}
    required = {
        "repro_http_requests_total",
        "repro_http_request_seconds_count",
        "repro_build_info",
    }
    missing = sorted(required - names)
    if missing:
        raise SystemExit(f"/metrics is missing series: {missing}")
    print(f"/metrics: {len(samples)} samples parse cleanly")
    return samples


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="closed-loop load generator for the serving layer"
    )
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients")
    parser.add_argument("--rounds", type=int, default=3,
                        help="passes over the question set per phase")
    parser.add_argument("--latency", type=float, default=0.02,
                        help="simulated per-generation LLM latency (s)")
    parser.add_argument("--limit", type=int, default=None,
                        help="cap the distinct questions used")
    parser.add_argument("--p99-factor", type=float, default=5.0,
                        help="warm p99 budget as a multiple of the "
                             "single-request warm latency")
    parser.add_argument("--smoke", action="store_true",
                        help="exit non-zero on dropped requests, a warm p99 "
                             "over budget, or a broken /metrics export")
    parser.add_argument("--trace-dir", default=None,
                        help="stream a request-correlated JSONL trace of "
                             "the whole run into this directory")
    parser.add_argument("--baseline-out", default=None,
                        help="write the run's latency/QPS/token metrics as "
                             "a BENCH_serve.json snapshot")
    parser.add_argument("--baseline-compare", default=None,
                        help="diff this run against a prior snapshot and "
                             "exit non-zero on regressions")
    parser.add_argument("--baseline-threshold", type=float, default=0.1,
                        help="allowed relative slip per metric before the "
                             "comparison fails (default 10%%)")
    args = parser.parse_args(argv)

    if args.trace_dir:
        from repro.obs import configure_trace_dir
        configure_trace_dir(args.trace_dir)

    corpus = build_corpus(CorpusConfig(seed=3, train_per_db=12, dev_per_db=8))
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                             seed=3, llm_latency_s=args.latency)
    service = SqlService(runner, metrics=MetricsRegistry(),
                         limiter=RateLimiter(rate=1e6, capacity=1e6))
    questions = [(e.question, e.db_id) for e in corpus.dev.examples]
    if args.limit:
        questions = questions[:args.limit]
    requests = questions * args.rounds

    with SqlServer(service, port=0).start_background() as server:
        base = server.url
        print(f"serving {base} — {len(questions)} questions × "
              f"{args.rounds} rounds, {args.clients} clients, "
              f"{args.latency * 1e3:.0f} ms simulated LLM latency")

        # sequential, cache-cold requests = the single-request baseline
        singles = []
        for question, db_id in questions[: min(10, len(questions))]:
            started = time.perf_counter()
            post_generate(base, question, db_id)
            singles.append(time.perf_counter() - started)
        single = percentile(singles, 0.50)
        print(f"{'single (cold)':<14} p50 {single * 1e3:7.1f} ms "
              f"over {len(singles)} sequential uncached requests")

        cold = run_pass(base, requests, args.clients)
        report("cold cache", cold)

        warm = run_pass(base, requests, args.clients)
        report("warm cache", warm)
        samples = metrics_gate(base)

    budget = args.p99_factor * single
    dropped = cold["dropped"] + warm["dropped"]
    print(f"warm p99 {warm['p99'] * 1e3:.1f} ms vs budget "
          f"{budget * 1e3:.1f} ms ({args.p99_factor:g}x single); "
          f"{dropped} dropped total")
    if args.smoke:
        if dropped:
            print("SMOKE FAIL: dropped requests", cold["errors"][:3],
                  warm["errors"][:3])
            return 1
        if warm["p99"] >= budget:
            print("SMOKE FAIL: warm-cache p99 over budget")
            return 1
        print(f"SMOKE OK: {args.clients} clients sustained, zero dropped, "
              "warm p99 within budget")
    if args.trace_dir:
        print(f"trace: {args.trace_dir} "
              f"(try: dail-sql trace correlate req-1 {args.trace_dir})")

    if args.baseline_out or args.baseline_compare:
        from repro.obs.baseline import (
            diff_baselines,
            format_diff,
            load_baseline,
            write_baseline,
        )

        prompt_tokens = sum(
            value for name, labels, value in samples
            if name == "repro_llm_tokens_total"
            and labels.get("kind") == "prompt"
        )
        completed = len(singles) + cold["completed"] + warm["completed"]
        metrics = {
            "latency_p50_s": warm["p50"],
            "latency_p99_s": warm["p99"],
            "qps": warm["qps"],
            "dropped": float(dropped),
            "tokens_per_question": (
                prompt_tokens / completed if completed else 0.0
            ),
        }
        directions = {
            "latency_p50_s": "lower",
            "latency_p99_s": "lower",
            "qps": "higher",
            "dropped": "lower",
            "tokens_per_question": "lower",
        }
        meta = {"bench": "bench_serve", "clients": args.clients,
                "rounds": args.rounds, "latency_s": args.latency,
                "limit": args.limit}
        if args.baseline_out:
            path = write_baseline(args.baseline_out, "serve", metrics,
                                  directions, meta=meta)
            print(f"baseline snapshot written: {path}")
        if args.baseline_compare:
            baseline = load_baseline(args.baseline_compare)
            regressions, rows = diff_baselines(
                baseline, {"metrics": metrics, "directions": directions},
                threshold=args.baseline_threshold,
            )
            print(format_diff(rows))
            if regressions:
                names = ", ".join(row.metric for row in regressions)
                print(f"BASELINE FAIL: regressed vs "
                      f"{args.baseline_compare}: {names}")
                return 1
            print(f"baseline OK vs {args.baseline_compare} "
                  f"(threshold {args.baseline_threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
