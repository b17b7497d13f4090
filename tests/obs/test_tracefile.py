"""Trace-file analysis tests (offline aggregation of JSONL spans)."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import tracefile
from repro.obs.trace import TRACE_SCHEMA_VERSION


def span(kind, name, dur_s=0.1, **attrs):
    return {
        "v": TRACE_SCHEMA_VERSION, "kind": kind, "name": name,
        "span": name, "parent": "", "t0": 0.0, "dur_s": dur_s,
        "attrs": attrs,
    }


def write_trace(path, spans):
    path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")
    return path


SAMPLE = [
    span("run", "eval", dur_s=2.0, configs=1, examples=2, workers=2),
    span("cell", "c", dur_s=2.0),
    span("example", "e1", dur_s=1.0, hardness="easy", cell="c"),
    span("example", "e2", dur_s=0.5, hardness="hard", cell="c",
         error_class="ModelError", error="ModelError: boom"),
    span("stage", "generate", dur_s=0.8, excl_s=0.6, cell="c"),
    span("stage", "generate", dur_s=0.4, excl_s=0.4, cell="c"),
    span("stage", "execute", dur_s=0.2, cell="c"),
]


class TestLoading:
    def test_loads_file_and_directory(self, tmp_path):
        write_trace(tmp_path / "a.jsonl", SAMPLE[:3])
        write_trace(tmp_path / "b.jsonl", SAMPLE[3:])
        assert len(tracefile.load_spans(tmp_path / "a.jsonl")) == 3
        assert len(tracefile.load_spans(tmp_path)) == len(SAMPLE)

    def test_skips_malformed_and_foreign_versions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(SAMPLE[0]), "{truncated",
                 json.dumps({**SAMPLE[1], "v": 999}), ""]
        path.write_text("\n".join(lines))
        spans = tracefile.load_spans(path)
        assert [s["name"] for s in spans] == ["eval"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproError):
            tracefile.load_spans(tmp_path / "nope.jsonl")

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ReproError):
            tracefile.load_spans(tmp_path)


class TestPercentile:
    def test_exact_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert tracefile.percentile(values, 0.5) == 2.5
        assert tracefile.percentile(values, 0.0) == 1.0
        assert tracefile.percentile(values, 1.0) == 4.0
        assert tracefile.percentile([], 0.5) == 0.0
        assert tracefile.percentile([7.0], 0.95) == 7.0


class TestAggregation:
    def test_stage_summary_exclusive_totals(self):
        rows = tracefile.stage_summary(SAMPLE)
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["generate"]["count"] == 2
        assert by_stage["generate"]["total_s"] == pytest.approx(1.0)
        # no excl_s attr -> falls back to inclusive duration
        assert by_stage["execute"]["total_s"] == pytest.approx(0.2)
        assert rows[0]["stage"] == "generate"  # sorted by total desc
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)

    def test_hardness_summary_ordering_and_errors(self):
        rows = tracefile.hardness_summary(SAMPLE)
        assert [row["hardness"] for row in rows] == ["easy", "hard"]
        assert rows[1]["errors"] == 1

    def test_cell_summary(self):
        (row,) = tracefile.cell_summary(SAMPLE)
        assert row["cell"] == "c"
        assert row["count"] == 2

    def test_slowest(self):
        top = tracefile.slowest(SAMPLE, kind="example", top=1)
        assert [s["name"] for s in top] == ["e1"]

    def test_error_groups(self):
        (group,) = tracefile.error_groups(SAMPLE)
        assert group["error_class"] == "ModelError"
        assert group["examples"] == ["e2"]
        assert group["messages"] == ["ModelError: boom"]

    def test_run_info(self):
        info = tracefile.run_info(SAMPLE)
        assert info == {"duration_s": 2.0, "configs": 1,
                        "examples": 2, "workers": 2, "backend": ""}
        assert tracefile.run_info([]) is None

    def test_stage_totals_filters_by_cell(self):
        totals = tracefile.stage_totals(SAMPLE, cell="c")
        assert totals["generate"] == pytest.approx(1.0)
        assert tracefile.stage_totals(SAMPLE, cell="other") == {}


class TestExport:
    def test_to_prometheus_parses_and_counts(self):
        from repro.obs.metrics import parse_prometheus

        samples = parse_prometheus(tracefile.to_prometheus(SAMPLE))
        values = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert values[("repro_examples_total", (("cell", "c"),))] == 2.0
        assert values[("repro_errors_total", (("cell", "c"),))] == 1.0


def rspan(kind, name, span_id, parent="", t0=0.0, **attrs):
    """A span with explicit ids — correlate follows parent links."""
    return {
        "v": TRACE_SCHEMA_VERSION, "kind": kind, "name": name,
        "span": span_id, "parent": parent, "t0": t0, "dur_s": 0.01,
        "attrs": attrs,
    }


REQUEST_TRACE = [
    rspan("request", "req-1", "1", t0=1.0, op="generate", tenant="default",
          request="req-1"),
    rspan("stage", "select", "2", parent="1", t0=1.1, request="req-1"),
    rspan("stage", "generate", "3", parent="1", t0=1.2, request="req-1"),
    # a span recorded on another thread, parented explicitly onto the
    # requester's generate stage
    rspan("coalesce", "req-1", "4", parent="3", t0=1.3, batch=2,
          coalesced=True, request="req-1"),
    # another request whose span lost its parent
    rspan("request", "req-2", "5", t0=1.05, request="req-2"),
    rspan("coalesce", "req-2", "6", parent="7", t0=1.3, request="req-2"),
]


class TestCorrelate:
    def test_single_rooted_tree_with_nested_coalesce(self):
        tree = tracefile.correlate(REQUEST_TRACE, "req-1")
        assert tree["span"]["name"] == "req-1"
        stages = [node["span"]["name"] for node in tree["children"]]
        assert stages == ["select", "generate"]
        generate = tree["children"][1]
        assert [n["span"]["kind"] for n in generate["children"]] == [
            "coalesce"
        ]

    def test_children_ordered_by_start_time(self):
        shuffled = list(reversed(REQUEST_TRACE))
        tree = tracefile.correlate(shuffled, "req-1")
        starts = [node["span"]["t0"] for node in tree["children"]]
        assert starts == sorted(starts)

    def test_strangers_stay_out_of_the_tree(self):
        tree = tracefile.correlate(REQUEST_TRACE, "req-1")

        def names(node):
            yield node["span"]["span"]
            for child in node["children"]:
                yield from names(child)

        assert set(names(tree)) == {"1", "2", "3", "4"}

    def test_orphans_with_matching_attr_are_adopted(self):
        # req-2's coalesce span points at a parent id the trace lost
        # (rotated segment): adoption keeps the tree single-rooted.
        tree = tracefile.correlate(REQUEST_TRACE, "req-2")
        kinds = [node["span"]["kind"] for node in tree["children"]]
        assert kinds == ["coalesce"]

    def test_unknown_request_raises_listing_known_ids(self):
        with pytest.raises(ReproError, match="req-1, req-2"):
            tracefile.correlate(REQUEST_TRACE, "req-404")

    def test_empty_trace_raises_with_none_listing(self):
        with pytest.raises(ReproError, match="none"):
            tracefile.correlate([], "req-1")

    def test_duplicate_request_names_pick_latest(self):
        retried = REQUEST_TRACE + [
            rspan("request", "req-1", "9", t0=9.0, attempt=2),
        ]
        tree = tracefile.correlate(retried, "req-1")
        assert tree["span"]["span"] == "9"

    def test_request_ids_first_seen_order(self):
        assert tracefile.request_ids(REQUEST_TRACE) == ["req-1", "req-2"]

    def test_format_span_tree_indents_and_decorates(self):
        text = tracefile.format_span_tree(
            tracefile.correlate(REQUEST_TRACE, "req-1")
        )
        lines = text.splitlines()
        assert lines[0].startswith("request req-1 [")
        assert "op=generate" in lines[0]
        assert lines[1].startswith("  stage select")
        assert any(line.startswith("    coalesce req-1") for line in lines)
