"""CLI contract tests — exit codes and ``--json`` payloads.

The CLI is scripting surface: CI jobs and the study pipeline shell out
to it, so its exit-code conventions are load-bearing — 0 success,
1 violation/hazard/regression found, 2 bad arguments — and the
``--json`` payloads must stay parseable.  Everything runs in-process
through ``repro.cli.main(argv)``.
"""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; return (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_FAST = ("--workers", "1", "--ops", "3", "--warmup", "0",
              "--repetitions", "1")


def test_bench_success_prints_table(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", *BENCH_FAST)
    assert code == 0
    assert out.splitlines()[0].startswith("| problem |")
    assert "| pingpong |" in out
    assert "bench: pingpong on coroutines" in err


def test_bench_json_payload_is_schema_stable(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--problems", "pingpong,sum_workers",
        "--runtimes", "coroutines,threads", "--json", *BENCH_FAST)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["regressions"] == []
    assert len(payload["cells"]) == 4
    for cell in payload["cells"]:
        assert {"problem", "runtime", "wall_us", "throughput_ops_per_s",
                "profile"} <= set(cell)


def test_bench_unknown_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "bench", "--problems", "nope",
                           *BENCH_FAST)
    assert code == 2
    assert "unknown bench problem" in err
    assert "known problems:" in err


def test_bench_unknown_runtime_exits_2(capsys):
    code, _, err = run_cli(capsys, "bench", "--runtimes", "fibers",
                           "--problems", "pingpong", *BENCH_FAST)
    assert code == 2
    assert "unknown runtime" in err


def test_bench_regression_gate_exits_1(capsys, tmp_path):
    baseline = tmp_path / "BENCH_runtimes.json"
    baseline.write_text(json.dumps({
        "schema": 1, "tolerance": 0.5,
        "cells": {"pingpong.coroutines":
                  {"throughput_ops_per_s": 1e12, "wall_us_p95": 0.001}},
    }))
    code, _, err = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", "--baseline", str(baseline),
        *BENCH_FAST)
    assert code == 1
    assert "REGRESSION: pingpong.coroutines" in err


def test_bench_passing_gate_and_update_baseline(capsys, tmp_path):
    baseline = tmp_path / "BENCH_runtimes.json"
    baseline.write_text(json.dumps({
        "schema": 1, "tolerance": 0.8,
        "cells": {"pingpong.coroutines":
                  {"throughput_ops_per_s": 0.001, "wall_us_p95": 1e12}},
    }))
    code, _, _ = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", "--baseline", str(baseline),
        *BENCH_FAST)
    assert code == 0
    code, _, err = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", "--baseline", str(baseline),
        "--update-baseline", *BENCH_FAST)
    assert code == 0
    assert "updated baseline" in err
    updated = json.loads(baseline.read_text())
    assert updated["tolerance"] == 0.8       # tolerance survives rewrite
    assert updated["cells"]["pingpong.coroutines"][
        "throughput_ops_per_s"] > 0.001


def test_bench_trace_dir_writes_chrome_trace(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", "--trace-dir", str(tmp_path),
        *BENCH_FAST)
    assert code == 0
    trace = json.loads((tmp_path / "bench_trace.json").read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    assert "bench_trace.json" in err


def test_bench_report_writes_detail_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.md"
    code, _, _ = run_cli(
        capsys, "bench", "--problems", "pingpong",
        "--runtimes", "coroutines", "--report", "--out", str(out_file),
        *BENCH_FAST)
    assert code == 0
    text = out_file.read_text()
    assert "### pingpong on coroutines" in text


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_monitor_clean_problem_exits_0(capsys):
    # pingpong emits an info-severity witness hazard (async-send), which
    # must not flag the run — only error/warning severities exit 1
    code, out, _ = run_cli(capsys, "monitor", "pingpong", "--seed", "7")
    assert code == 0
    assert "pingpong: 1 run, outcome done" in out


def test_monitor_hazard_found_exits_1_with_json(capsys):
    # the bug-gallery deadlock variant trips the deadlock detector on
    # exploration
    code, out, _ = run_cli(capsys, "monitor", "bug:deadlock-lock-ordering",
                           "--explore", "--max-runs", "2000", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["flagged"] is True
    assert any(h["severity"] in ("error", "warning")
               for h in payload["hazards"])


def test_monitor_unknown_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "monitor", "no-such-problem")
    assert code == 2
    assert "unknown problem" in err


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def test_explain_no_violation_exits_0(capsys):
    code, out, _ = run_cli(capsys, "explain", "pingpong",
                           "--max-runs", "2000")
    assert code == 0
    assert "no violation found" in out


def test_explain_violation_exits_1(capsys):
    code, out, _ = run_cli(capsys, "explain", "bug:deadlock-lock-ordering",
                           "--max-runs", "2000")
    assert code == 1
    assert out     # narrative on stdout


def test_explain_unknown_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "explain", "no-such-problem")
    assert code == 2
    assert "unknown problem" in err


# ---------------------------------------------------------------------------
# top
# ---------------------------------------------------------------------------

TOP_FAST = ("--demo", "--once", "--interval", "0.4")


def test_top_demo_renders_dashboard(capsys):
    code, out, _ = run_cli(capsys, "top", *TOP_FAST)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("repro top — 2 node(s)")
    assert "NODE" in lines[1] and "OPS/S" in lines[1]
    assert any(ln.startswith("alpha") for ln in lines)
    assert any(ln.startswith("beta") for ln in lines)
    assert "\x1b[" not in out                 # not a tty: plain text


def test_top_demo_json_snapshot(capsys):
    code, out, _ = run_cli(capsys, "top", *TOP_FAST, "--json")
    assert code == 0
    snap = json.loads(out)
    assert set(snap["nodes"]) == {"alpha", "beta"}
    for node in snap["nodes"].values():
        assert {"rates", "gauges", "hists", "frames", "lost"} <= set(node)
    # demo burns nothing: every tracked (slo, node) pair stays quiet
    assert [a for a in snap["alerts"] if a["state"] == "firing"] == []


def test_top_without_target_exits_2(capsys):
    code, _, err = run_cli(capsys, "top", "--once")
    assert code == 2
    assert "--connect" in err and "--demo" in err


def test_top_rejects_bad_address(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["top", "--connect", "nope", "--once"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# postmortem
# ---------------------------------------------------------------------------

def _bundle(kind="actor-failure", node="b"):
    return {"v": 1, "seq": 1, "kind": kind, "node": node, "ts": 12.0,
            "detail": {"actor": "bomb"},
            "alerts": [{"slo": "error-rate", "node": node,
                        "state": "firing"}],
            "telemetry": {"nodes": {}},
            "events": {"a": 3, "b": 5},
            "trace": {"traceEvents": [], "displayTimeUnit": "ms"},
            "narrative": f"POSTMORTEM: {kind}\n  node '{node}': ..."}


def test_postmortem_empty_dir_exits_1(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path))
    assert code == 1
    assert "no postmortem bundles" in out


def test_postmortem_lists_bundles(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    (tmp_path / "pm-002-peer-down.json").write_text(
        json.dumps(_bundle(kind="peer-down")))
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("pm-001-actor-failure.json: actor-failure")
    assert "8 flight event(s) from 2 node(s)" in lines[0]
    assert "1 firing alert(s)" in lines[0]


def test_postmortem_latest_prints_narrative_and_trace(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    (tmp_path / "pm-002-peer-down.json").write_text(
        json.dumps(_bundle(kind="peer-down")))
    trace_out = tmp_path / "merged.json"
    code, out, err = run_cli(
        capsys, "postmortem", "--dir", str(tmp_path), "latest",
        "--trace-out", str(trace_out))
    assert code == 0
    assert out.startswith("POSTMORTEM: peer-down")   # latest = pm-002
    assert "merged.json" in err
    assert json.loads(trace_out.read_text())["displayTimeUnit"] == "ms"


def test_postmortem_json_roundtrip(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path),
                           "pm-001-actor-failure.json", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "actor-failure"


def test_postmortem_missing_bundle_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "postmortem", "--dir", str(tmp_path),
                           "pm-042-ghost.json")
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# argparse-level bad arguments
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bench_rejects_non_integer_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--workers", "many"])
    assert exc.value.code == 2


@pytest.mark.parametrize("every", ["0", "-1", "x"])
def test_check_rejects_progress_every_below_one(capsys, tmp_path, every):
    source = tmp_path / "p.pseudo"
    source.write_text("PRINT(1)\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(source), "--progress", "--progress-every", every])
    assert exc.value.code == 2
    assert "--progress-every" in capsys.readouterr().err
