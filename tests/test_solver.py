import sys
import time

import pytest

from catafuse import engine as engine_mod
from catafuse import solver as solver_mod
from catafuse.engine import ConstraintEngine, bundled_cmd
from catafuse.parser import parse_problem
from catafuse.solver import (SolveResult, SolverConfig, bench_one,
                             check_equisat, expected_tag, run_bench, solve,
                             solve_file, write_reports)
from catafuse.smtlib import emit_smtlib
from catafuse.transform import transform_problem, transformed_problem


CFG = SolverConfig(timeout=90.0, original_timeout=45.0)


def test_trivially_unsat_query():
    p = parse_problem("pred p(int).\nfalse :- p(X).\np(X) :- X = 1.\n")
    r = solve(p, CFG)
    assert r.verdict == "unsat"
    assert r.solver


def test_false_from_true_with_empty_program():
    p = parse_problem("false.\n")
    assert solve(p, CFG).verdict == "unsat"


def test_solve_result_fields():
    p = parse_problem("pred p(int).\np(X) :- X = 1.\n")
    r = solve(p, CFG)
    assert isinstance(r, SolveResult)
    assert r.seconds < CFG.timeout + 15


def test_check_equisat_agree_on_unsat(corpus_dir):
    text = (corpus_dir / "member_unsat.chc").read_text()
    pb = parse_problem(text)
    eng = ConstraintEngine()
    try:
        res = transform_problem(pb, eng)
    finally:
        eng.close()
    verdict, r1, r2 = check_equisat(pb, transformed_problem(pb, res), CFG)
    assert verdict == "agree"
    assert r1.verdict == r2.verdict == "unsat"


def test_check_equisat_detects_a_broken_fold(corpus_dir):
    """A deliberately corrupted transformation (the folded queries were
    lost) must be caught as a disagreement."""
    text = (corpus_dir / "append_len_unsat.chc").read_text()
    pb = parse_problem(text)
    eng = ConstraintEngine()
    try:
        res = transform_problem(pb, eng)
    finally:
        eng.close()
    tp = transformed_problem(pb, res)
    tp.queries[:] = []
    verdict, r1, r2 = check_equisat(pb, tp, CFG)
    assert verdict == "disagree"
    assert (r1.verdict, r2.verdict) == ("unsat", "sat")


def test_expected_tag_parsing():
    assert expected_tag("% stuff\n% expect: sat\np(X).\n") == "sat"
    assert expected_tag("p(X).\n") == ""


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory, corpus_dir):
    d = tmp_path_factory.mktemp("mini")
    for name in ("append_len_sat.chc", "append_len_unsat.chc",
                 "member_unsat.chc"):
        (d / name).write_text((corpus_dir / name).read_text())
    return d


def test_run_bench_mini(mini_corpus):
    report = run_bench(mini_corpus, CFG, jobs=2)
    assert len(report.rows) == 3
    assert all(r.ok for r in report.rows), report.to_text()
    by_name = {r.name: r for r in report.rows}
    assert by_name["append_len_sat"].transformed == "sat"
    assert by_name["append_len_unsat"].transformed == "unsat"
    txt, csvp = write_reports(report, mini_corpus)
    assert txt.exists() and csvp.exists()
    # timings differ between runs; the verdicts must not
    def verdicts(rep):
        return [(r.name, r.expected, r.original, r.transformed, r.ok)
                for r in rep.rows]
    assert verdicts(report) == verdicts(run_bench(mini_corpus, CFG, jobs=1))
    names = [r.name for r in report.rows]
    assert names == sorted(names)


def test_run_bench_empty(tmp_path):
    report = run_bench(tmp_path, CFG)
    assert report.rows == [] and not report.failures


def test_bench_records_errors_and_continues(tmp_path, corpus_dir):
    (tmp_path / "broken.chc").write_text("pred p(int.\n")
    (tmp_path / "ok.chc").write_text((corpus_dir / "member_unsat.chc").read_text())
    report = run_bench(tmp_path, CFG)
    assert len(report.rows) == 2
    broken = next(r for r in report.rows if r.name == "broken")
    assert not broken.ok and "error" in broken.note
    assert next(r for r in report.rows if r.name == "ok").ok


def test_crashed_solver_is_an_error_not_unknown(tmp_path, corpus_dir):
    crashing = SolverConfig(
        cmd=[sys.executable, "-c", "import sys; sys.exit('solver crashed')"],
        timeout=30.0)
    script = tmp_path / "p.smt2"
    script.write_text("(check-sat)\n")
    with pytest.raises(RuntimeError, match="status 1.*solver crashed"):
        solve_file(script, crashing)
    src = tmp_path / "member_unsat.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    row = bench_one(src, crashing)
    assert not row.ok
    assert "solver crashed" in row.note


TRIVIAL_HORN = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (p x))))
(assert (forall ((x Int)) (=> (and (p x) (= x 0)) false)))
(check-sat)
"""


def _bundled(limit: float) -> tuple[SolverConfig, tuple[str, ...]]:
    """The bundled solver at `limit`, and the key of its spares; a limit that
    no other test uses gives a test spares of its own."""
    config = SolverConfig(bundled_cmd("catafuse.refsolver.horn"), limit)
    return config, tuple(config.cmd + ["-t", str(limit), "-"])


@pytest.fixture()
def taken(monkeypatch):
    """The pid of every child `solve_file` takes."""
    pids = []

    def take_child(cmd):
        child = engine_mod.take_child(cmd)
        pids.append(child[0].pid)
        return child

    monkeypatch.setattr(solver_mod, "take_child", take_child)
    return pids


def test_second_solve_prestarts_the_third(tmp_path, taken):
    config, key = _bundled(91.0)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    assert solve_file(script, config).verdict == "unsat"
    # a single start in a process keeps no spare
    assert key not in engine_mod._spares
    assert solve_file(script, config).verdict == "unsat"
    spare = engine_mod._spares[key][0].pid
    assert spare not in taken
    assert solve_file(script, config).verdict == "unsat"
    assert taken[2] == spare
    assert engine_mod._spares[key][0].pid not in taken
    assert len(set(taken)) == 3


def test_dead_solver_spare_is_replaced(tmp_path, taken):
    config, key = _bundled(92.0)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    solve_file(script, config)
    solve_file(script, config)
    dead, dead_stderr = engine_mod._spares[key]
    dead.kill()
    dead.wait()
    assert solve_file(script, config).verdict == "unsat"
    assert taken[2] != dead.pid
    assert dead_stderr.closed
    assert engine_mod._spares[key][0].poll() is None


def test_waiting_spare_keeps_its_whole_limit(tmp_path, corpus_dir, taken):
    # the limit runs from the hand-over, not from the spare's launch
    pb = parse_problem((corpus_dir / "bst_insert_sat.chc").read_text())
    eng = ConstraintEngine()
    try:
        tp = transformed_problem(pb, transform_problem(pb, eng))
    finally:
        eng.close()
    script = tmp_path / "bst_insert_sat.transformed.smt2"
    script.write_text(emit_smtlib(tp))
    config, key = _bundled(1.0)
    for _ in range(2):
        solve_file(script, config)
    spare = engine_mod._spares[key][0].pid
    time.sleep(2)
    r = solve_file(script, config)
    assert taken[2] == spare
    assert r.verdict == "unknown"
    assert 1.0 <= r.seconds < 5


def test_solver_naming_its_file_gets_no_spare(tmp_path):
    code = "import sys; print(open(sys.argv[1]).read().split()[0])"
    config = SolverConfig(cmd=[sys.executable, "-S", "-c", code], timeout=30)
    script = tmp_path / "q.smt2"
    for verdict in ("sat", "unsat", "unknown"):
        script.write_text(verdict + "\n")
        assert solve_file(script, config).verdict == verdict
    started = set(engine_mod._spares) | engine_mod._started
    assert not any(k[:len(config.cmd)] == tuple(config.cmd) for k in started)


def test_bundled_solver_is_named_by_its_module(tmp_path, monkeypatch):
    assert SolverConfig(cmd=bundled_cmd("catafuse.refsolver.horn")) \
        .identity() == "catafuse.refsolver.horn (bundled)"
    # a bundled child that exits with no verdict: json.tool on a non-JSON file
    script = tmp_path / "p.smt2"
    script.write_text("(check-sat)\n")
    config = SolverConfig(cmd=bundled_cmd("json.tool"), timeout=30.0)
    with pytest.raises(RuntimeError) as err:
        solve_file(script, config)
    assert "solver json.tool (bundled) exited with status 1" in str(err.value)
    assert engine_mod._LAUNCH not in str(err.value)
    # and one that cannot be launched at all
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    with pytest.raises(engine_mod.OracleError) as err:
        engine_mod.Oracle(bundled_cmd("catafuse.refsolver.oracle")).check(
            parse_problem("false.\n").queries[0].constraint)
    assert "cannot launch catafuse.refsolver.oracle (bundled)" \
        in str(err.value)
    assert engine_mod._LAUNCH not in str(err.value)
