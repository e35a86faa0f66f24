import sys

import pytest

from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from catafuse.solver import (SolveResult, SolverConfig, bench_one,
                             check_equisat, expected_tag, run_bench, solve,
                             solve_file, write_reports)
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
