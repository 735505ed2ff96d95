"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

import harness
import metrics
import run
import spans
import workloads

LAYER = {k: k for k in ("crfsolve", "syzygy", "polycalc", "linalg", "cli")}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail(list(range(10))) is None
    assert metrics.tail(list(range(11))) == (0, 100.0 / 11, 11)
    value, pct, n = metrics.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_speed_correction_uses_the_reference_around_each_job():
    # the machine halves its speed after the second job
    times = [1.0, 1.0, 1.5, 2.0]
    refs = [0.01, 0.01, 0.01, 0.02, 0.02]
    assert metrics.speed_corrected(times, refs, 0.01) == pytest.approx(
        [1.0, 1.0, 1.0, 1.0])
    assert metrics.speed_corrected([3.0], [0.02, 0.02], 0.01) == [1.5]
    with pytest.raises(ValueError):
        metrics.speed_corrected([1.0], [0.01], 0.01)


def test_self_time_nested_across_modules():
    # crfsolve [0,10] -> polycalc [2,6] -> crfsolve [3,4]; linalg [7,9]
    spans_ = [("crfsolve", 0.0, 10.0, -1), ("polycalc", 2.0, 6.0, 0),
              ("crfsolve", 3.0, 4.0, 1), ("linalg", 7.0, 9.0, 0)]
    got = metrics.self_times(spans_, LAYER)
    assert got == pytest.approx({"crfsolve": 10 - 4 - 2 + 1,
                                 "polycalc": 3.0, "linalg": 2.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans_ = [("cli", 0.0, 10.0, -1), ("polycalc", 1.0, 5.0, 0),
              ("linalg", 3.0, 7.0, 0), ("linalg", 9.0, 12.0, 0)]
    got = metrics.self_times(spans_, LAYER)
    # children cover [1,7] and [9,10] of the parent
    assert got["cli"] == pytest.approx(10 - 6 - 1)


def test_phases_split_by_span_order():
    spans_ = [("cli", 0.0, 12.0, -1),
              ("crfsolve", 1.0, 11.0, 0),      # top-level call
              ("polycalc", 1.0, 3.0, 1),       # assembly
              ("linalg", 4.0, 6.0, 1),
              ("linalg", 4.5, 5.0, 3),         # nested: not counted twice
              ("polycalc", 6.5, 7.0, 1),       # between solves: no phase
              ("linalg", 7.0, 9.0, 1),
              ("crfsolve", 9.0, 10.5, 1),      # nested call: not a root
              ("polycalc", 9.5, 10.5, 7),      # verification
              ("polycalc", 10.0, 10.2, 8)]
    got = metrics.phases(spans_, LAYER)
    assert got == pytest.approx({"assemble": 3.0, "eliminate": 4.0,
                                 "verify": 1.0})


def test_call_without_elimination_is_all_assembly():
    spans_ = [("syzygy", 0.0, 2.0, -1), ("polycalc", 0.5, 1.0, 0)]
    assert metrics.phases(spans_, LAYER) == {
        "assemble": 2.0, "eliminate": 0.0, "verify": 0.0}


def test_function_totals_do_not_double_count_recursion():
    spans_ = [("polycalc", 0.0, 4.0, -1), ("polycalc", 1.0, 2.0, 0),
              ("linalg", 2.0, 3.0, 0), ("polycalc", 2.2, 2.4, 2)]
    assert metrics.function_totals(spans_) == {
        "polycalc": (3, pytest.approx(4.0)), "linalg": (1, pytest.approx(1.0))}


@pytest.fixture(scope="module")
def program():
    return harness.import_program()


def _quick_job():
    return workloads.Job("syzygy/H2/degree-1",
                         ("syzygy", "--algebra", "H", "--n", "2",
                          "--degree", "1"), None, 0)


def test_golden_check_catches_a_wrong_golden(program, tmp_path):
    job = _quick_job()
    outcome = harness.run_job(job, tmp_path, *program)
    golden = harness.golden_view(job, outcome)
    assert harness.Checker({job.id: golden}).check(job, outcome)
    for wrong in ({**golden, "digest": "0" * 64}, {**golden, "exit": 1},
                  {**golden, "status": "fail"}):
        checker = harness.Checker({job.id: wrong})
        assert not checker.check(job, outcome)
        assert checker.failed == 1
    assert not harness.Checker({}).check(job, outcome)


def test_golden_check_ignores_keys_outside_the_golden_fields(program,
                                                             tmp_path):
    job = _quick_job()
    outcome = harness.run_job(job, tmp_path, *program)
    golden = harness.golden_view(job, outcome)
    rep = json.loads(outcome.text)
    rep["stats"] = {"rows": 12}
    rep["inputs_sha256"] = "x"
    outcome.text = json.dumps(rep)
    assert harness.Checker({job.id: golden}).check(job, outcome)
    rep["checks"][0]["status"] = "fail"
    outcome.text = json.dumps(rep)
    assert not harness.Checker({job.id: golden}).check(job, outcome)


def test_repeated_job_must_repeat_its_report_bytes(program, tmp_path):
    job = _quick_job()
    outcome = harness.run_job(job, tmp_path, *program)
    checker = harness.Checker({job.id: harness.golden_view(job, outcome)})
    assert checker.check(job, outcome)
    assert checker.check(job, harness.run_job(job, tmp_path, *program))
    outcome.text = outcome.text.replace("\n", " ")   # same JSON, other bytes
    assert not checker.check(job, outcome)


def test_raising_job_fails(program, tmp_path):
    job = workloads.Job("solve/missing", ("solve", "--input", "PAYLOAD"),
                        "missing", 0)
    outcome = harness.run_job(job, tmp_path, *program)
    assert outcome.code == 2
    assert not harness.Checker({}).check(job, outcome)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_gives_the_same_job_mix(workload, program):
    def mix(seed, pass_index):
        jobs, _ = workloads.pass_jobs(workload, seed, pass_index)
        return Counter((re.sub(r"-\d+$", "", job.id.split("/")[1]),
                        job.kind, job.expect_exit) for job in jobs)

    assert mix(1, 0) == mix(2, 0) == mix(12345, 1)
    jobs, payloads = workloads.pass_jobs(workload, 7, 0)
    again, payloads_again = workloads.pass_jobs(workload, 7, 0)
    assert jobs == again and payloads == payloads_again


def test_every_pool_job_has_a_golden():
    goldens = harness.load_goldens()
    ids = {job.id for w in workloads.WORKLOADS
           for job, _ in workloads.pool_jobs(w)}
    assert ids == set(goldens)


def test_tracer_rebinds_aliases_and_restores(program, tmp_path):
    import crfbench.cli as cli
    import crfbench.crfsolve as crfsolve
    import crfbench.linalg as linalg
    import crfbench.polycalc as polycalc
    originals = (linalg.solve_sparse, crfsolve.solve_sparse,
                 crfsolve.fueter_dbar, cli._COMMANDS["syzygy"],
                 linalg.Echelon.add_row, polycalc.HPoly.__dict__["zero"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert crfsolve.solve_sparse is linalg.solve_sparse
        assert crfsolve.solve_sparse is not originals[0]
        assert crfsolve.fueter_dbar is polycalc.fueter_dbar
        assert cli._COMMANDS["syzygy"] is cli.cmd_syzygy is not originals[3]
        job = _quick_job()
        outcome = harness.run_job(job, tmp_path, cli, crfsolve)
        job_spans = tracer.take_spans()
    finally:
        tracer.uninstall()
    assert outcome.code == 0
    names = {tracer.names[s[0]] for s in job_spans}
    assert {("cli", "main"), ("syzygy", "syzygy_dim"),
            ("linalg", "Echelon.add_row")} <= names
    assert tracer.counts["linalg.rows_fed"] > 0
    assert tracer.counts["syzygy.unknowns"] > 0
    assert (linalg.solve_sparse, crfsolve.solve_sparse, crfsolve.fueter_dbar,
            cli._COMMANDS["syzygy"], linalg.Echelon.add_row,
            polycalc.HPoly.__dict__["zero"]) == originals


def test_tracer_refuses_an_alias_it_cannot_rebind(program, monkeypatch):
    import crfbench.forms as forms
    import crfbench.polycalc as polycalc
    original = polycalc.fueter_dbar
    monkeypatch.setattr(forms, "HIDDEN_ALIAS", (original,), raising=False)
    tracer = spans.Tracer()
    with pytest.raises(spans.IncompleteWrapping, match="HIDDEN_ALIAS"):
        tracer.install()
    assert polycalc.fueter_dbar is original
    assert forms.fueter_dbar is original


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
