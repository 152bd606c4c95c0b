"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_counts.py

The file name keeps it out of the repository's test suite: the count
checks run every workload twice and take a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import tail  # noqa: E402
from tracing import Patcher, Tracer, UnitClock, summarize, unit_coverage  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("autodiff.tape.records", "autodiff.take_rows.calls",
          "masking.build_mask.calls", "optim.steps", "nifti.bytes_written",
          "autodiff.selective_scan.lds_mb")


def bench(*args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def traced_result(workload: str, seed: int) -> dict:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", "1")
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = traced_result(workload, 7), traced_result(workload, 7)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_program_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names)) and all(map(name.match, names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and unit.match(m["unit"])
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    assert 1 <= SPEC["run_seconds"] <= 60


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    pct, value, n = tail(list(range(20)))
    assert (pct, value, n) == (50.0, 9, 20)
    assert sum(v > value for v in range(20)) == 10


def test_self_time_subtracts_children_and_coverage_counts_top_spans():
    spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0],
             ["inner", 6.0, 7.0, 0, 0], ["other", 11.0, 12.0, -1, 0]]
    total, self_time, calls = summarize(spans)
    assert total == {"outer": 10.0, "inner": 4.0, "other": 1.0}
    assert self_time == {"outer": 6.0, "inner": 4.0, "other": 1.0}
    assert calls == {"outer": 1, "inner": 2, "other": 1}
    assert unit_coverage(spans, [(0, 0.0, 20.0)]) == [11.0 / 20.0]


def test_patcher_restores_and_reports_missing_attributes():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    clock = UnitClock()
    tracer = Tracer(clock)
    with Patcher() as patcher:
        assert patcher.replace(mod, "f", lambda fn: tracer.wrap("mod.f", fn))
        assert not patcher.replace(mod, "absent", lambda fn: fn)
        clock.begin()
        assert mod.f(1) == 2
        clock.end()
    assert mod.f is original
    assert patcher.missing == ["SimpleNamespace.absent"]
    assert [s[0] for s in tracer.spans] == ["mod.f"] and tracer.spans[0][4] == 0
