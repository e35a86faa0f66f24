import shutil
import subprocess
import sys

import pytest

from catafuse import engine as engine_mod
from catafuse.cli import build_parser, main
from catafuse.refsolver import horn


def run_cli(*args):
    return main(list(args))


def test_transform_writes_three_outputs(tmp_path, corpus_dir):
    src = tmp_path / "rev.chc"
    src.write_text((corpus_dir / "reverse_sum_sat.chc").read_text())
    assert run_cli("transform", str(src)) == 0
    assert (tmp_path / "rev.transformed.chc").exists()
    assert (tmp_path / "rev.transformed.smt2").exists()
    assert (tmp_path / "rev.derivation.log").exists()


def test_transformed_surface_reparses(tmp_path, corpus_dir):
    src = tmp_path / "rev.chc"
    src.write_text((corpus_dir / "reverse_sum_sat.chc").read_text())
    run_cli("transform", str(src))
    from catafuse.parser import parse_problem
    text = (tmp_path / "rev.transformed.chc").read_text()
    out = parse_problem(text)
    assert out.queries and out.program


def test_transform_identical_runs_byte_identical(tmp_path, corpus_dir):
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_sat.chc").read_text())
    run_cli("transform", str(src), "--out", str(tmp_path / "a"))
    run_cli("transform", str(src), "--out", str(tmp_path / "b"))
    for name in ("m.transformed.chc", "m.transformed.smt2", "m.derivation.log"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_transform_invalid_query_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.chc"
    bad.write_text(
        "pred p(list(int)).\n"
        "cata len(in:, adt: list(int), out: int).\n"
        "len([], N) :- N = 0.\n"
        "len([H|T], N) :- N = N1 + 1, len(T, N1).\n"
        "p([]).\n"
        "false :- ~(N = 0), len(Ys, N), p(Xs).\n")
    with pytest.raises(SystemExit) as e:
        run_cli("transform", str(bad))
    assert e.value.code == 1
    assert "(v)" in capsys.readouterr().err


def test_transform_missing_file_exit_1():
    with pytest.raises(SystemExit) as e:
        run_cli("transform", "/nonexistent/x.chc")
    assert e.value.code == 1


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_transform_unreadable_input_exit_1(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not utf-8":
        path = tmp_path / "bin.chc"
        path.write_bytes(b"\xff\xfe pred")
    with pytest.raises(SystemExit) as e:
        run_cli("transform", str(path))
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_transform_out_naming_a_file_exit_1(tmp_path, corpus_dir, capsys):
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_sat.chc").read_text())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli("transform", str(src), "--out", str(taken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "taken" in err
    assert taken.read_text() == ""


def test_transform_out_naming_a_file_is_refused_before_the_oracle_starts(
        tmp_path, corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("CHC_ORACLE", "sh -c 'exit 3'")
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_sat.chc").read_text())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli("transform", str(src), "--out", str(taken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "taken" in err
    assert "exit status 3" not in err


def test_transform_output_that_cannot_be_written_exit_1(tmp_path, corpus_dir,
                                                       capsys):
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_sat.chc").read_text())
    out = tmp_path / "out"
    (out / "m.transformed.chc").mkdir(parents=True)
    assert run_cli("transform", str(src), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert "m.transformed.chc" in err
    assert [p.name for p in out.iterdir()] == ["m.transformed.chc"]


@pytest.mark.parametrize("argv", [["transform"], ["solve", "--transformed"],
                                  ["verify"]])
def test_dead_oracle_is_an_error_line_and_exit_4(tmp_path, corpus_dir, capsys,
                                                 monkeypatch, argv):
    monkeypatch.setenv("CHC_ORACLE", "sh -c 'echo boom >&2; exit 3'")
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_sat.chc").read_text())
    with pytest.raises(SystemExit) as e:
        run_cli(*argv, str(src))
    assert e.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "exit status 3" in err and "boom" in err


def test_emit_obligations_flag(tmp_path, corpus_dir):
    src = tmp_path / "s.chc"
    src.write_text((corpus_dir / "reverse_sum_sat.chc").read_text())
    run_cli("transform", str(src), "--emit-obligations")
    assert (tmp_path / "s.sum.functionality.smt2").exists()
    assert (tmp_path / "s.sum.totality.smt2").exists()


NESTED_CATAS = """
pred p(list(int)).
cata a(in:, adt: list(int), out: int).
cata b(in:, adt: list(int), out: int).
cata c(in:, adt: list(int), out: int).
p([]).
p([X|Xs]) :- p(Xs).
a([], N) :- N = 0.
a([H|T], N) :- N = M + K, a(T, M), b(T, K).
b([], N) :- N = 0.
b([H|T], N) :- N = M + K, b(T, M), c(T, K).
c([], N) :- N = 0.
c([H|T], N) :- N = M + 1, c(T, M).
false :- N < 0, a(Xs, N), p(Xs).
"""


def test_obligations_hold_every_catamorphism_called_transitively(tmp_path):
    """`a` calls `b`, which calls `c`: without `c`'s clauses, `c` would be
    empty in `a`'s obligation, which would then hold whatever `c` is."""
    src = tmp_path / "nest.chc"
    src.write_text(NESTED_CATAS)
    assert run_cli("transform", str(src), "--emit-obligations") == 0
    clauses, _ = horn.read_script(
        (tmp_path / "nest.a.functionality.smt2").read_text())
    assert sorted(c.head.pred for c in clauses if c.head) == \
        ["a", "a", "b", "b", "c", "c"]


LEN = """
cata len(in:, adt: list(int), out: int).
len([], N) :- N = 0.
len([H|T], N) :- N = N1 + 1, len(T, N1).
"""
ORDERED = """
cata ordered(in:, adt: list(int), out: bool).
cata first(in:, adt: list(int), out: bool, int).
ordered([], B) :- B.
ordered([H|T], B) :-
    B <=> (B1 => (H =< F & B2)),
    first(T, B1, F), ordered(T, B2).
first([], B, F) :- ~B & F = 0.
first([H|T], B, F) :- B & F = H.
"""
ISBST = """
cata isbst(in:, adt: tree(int), out: bool).
cata bounds(in:, adt: tree(int), out: bool, int, int).
isbst(leaf, B) :- B.
isbst(node(L, N, R), B) :-
    B <=> (BL & BR & (HL => XL < N) & (HR => N =< NR)),
    bounds(L, HL, NL, XL), bounds(R, HR, NR, XR),
    isbst(L, BL), isbst(R, BR).
bounds(leaf, H, Mn, Mx) :- ~H & Mn = 0 & Mx = 0.
bounds(node(L, N, R), H, Mn, Mx) :-
    H & Mn = ite(HL, ite(MnL =< MnR0, MnL, MnR0), MnR0)
      & MnR0 = ite(HR, ite(MnR =< N, MnR, N), N)
      & Mx = ite(HR, ite(MxR >= MxL0, MxR, MxL0), MxL0)
      & MxL0 = ite(HL, ite(MxL >= N, MxL, N), N),
    bounds(L, HL, MnL, MxL), bounds(R, HR, MnR, MxR).
"""


@pytest.mark.parametrize("text", [
    # a redundant self-loop: unfolding the definition made for `p` through
    # it gives back a variant of that definition, which folds with it
    "pred p(list(int)).\npred q(list(int)).\n" + LEN +
    "p([]).\np(Xs) :- p(Xs).\nq(Xs) :- p(Xs).\n"
    "false :- N < 0, len(Xs, N), q(Xs).\n",
    # constants whose catamorphisms take many drive steps to unfold
    "pred mk(list(int)).\n" + ORDERED + "mk([1,2,3,4,5,6,7,8,9,10]).\n"
    "false :- ~B, ordered(Xs, B), mk(Xs).\n",
    "pred mk(tree(int)).\n" + ISBST +
    "mk(node(node(leaf, 1, leaf), 2, node(leaf, 3, leaf))).\n"
    "false :- ~B, isbst(T, B), mk(T).\n",
], ids=["self-loop", "sorted-list-of-10", "search-tree-of-3"])
def test_valid_problems_transform_and_solve(tmp_path, capsys, text):
    src = tmp_path / "p.chc"
    src.write_text(text)
    assert run_cli("transform", str(src)) == 0
    capsys.readouterr()
    assert run_cli("solve", "--transformed", str(src), "--timeout", "60") == 0
    assert capsys.readouterr().out.strip() == "sat"
    # the original search tree runs to the limit
    assert run_cli("verify", str(src), "--timeout", "3") == 0
    assert "disagree" not in capsys.readouterr().out


def test_solve_prints_verdict(tmp_path, corpus_dir, capsys):
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    assert run_cli("solve", "--transformed", str(src), "--timeout", "90") == 0
    assert capsys.readouterr().out.strip() == "unsat"


@pytest.mark.parametrize("bound, verdict", [(5, "sat"), (2, "unsat")])
def test_solve_ite_in_a_predicate_argument(tmp_path, capsys, bound, verdict):
    src = tmp_path / "ite.chc"
    src.write_text(f"pred p(int).\np(ite(B, 1, 2)).\n"
                   f"false :- X + 1 > {bound}, p(X).\n")
    assert run_cli("solve", str(src), "--timeout", "90") == 0
    assert capsys.readouterr().out.strip() == verdict


def test_verify_subcommand(tmp_path, corpus_dir, capsys):
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "append_len_unsat.chc").read_text())
    assert run_cli("verify", str(src), "--timeout", "90") == 0
    assert "agree" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_failed_solver_is_an_error_line_and_exit_4(tmp_path, corpus_dir,
                                                    capsys, command):
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    crash = f"{sys.executable} -c 'import sys; sys.exit(1)'"
    assert run_cli(command, str(src), "--solver", crash) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exited with status 1" in err
    assert "Traceback" not in err


def test_bench_subcommand(tmp_path, corpus_dir, capsys):
    (tmp_path / "one.chc").write_text((corpus_dir / "member_unsat.chc").read_text())
    code = run_cli("bench", str(tmp_path), "--timeout", "90", "--jobs", "1")
    assert code == 0
    out = capsys.readouterr().out
    assert "one" in out
    assert (tmp_path / "bench_report.csv").exists()


def test_bench_on_a_directory_without_problems_exit_1(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no problems here\n")
    assert run_cli("bench", str(tmp_path), "--jobs", "1") == 1
    err = capsys.readouterr().err
    assert err == f"error: no .chc problems in {tmp_path}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]


def test_bench_reports_a_problem_that_is_not_text_as_a_failed_row(
        tmp_path, corpus_dir, capsys):
    (tmp_path / "append_len_unsat.chc").write_text(
        (corpus_dir / "append_len_unsat.chc").read_text())
    (tmp_path / "bad.chc").write_bytes(b"\xff\xfe pred")
    assert run_cli("bench", str(tmp_path), "--timeout", "5",
                   "--jobs", "1") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # stdout says why the row failed, as the report file does
    assert "\nbad: error: cannot read bad.chc: " in captured.out
    rows = (tmp_path / "bench_report.csv").read_text().splitlines()
    bad = [r for r in rows if r.startswith("bad,")]
    assert len(bad) == 1 and ",0,error: cannot read bad.chc: " in bad[0]
    assert any(r.startswith("append_len_unsat,") for r in rows)


def test_bench_report_that_cannot_be_written_exit_1(tmp_path, corpus_dir,
                                                    capsys):
    (tmp_path / "append_len_unsat.chc").write_text(
        (corpus_dir / "append_len_unsat.chc").read_text())
    (tmp_path / "bench_report.txt").mkdir()
    assert run_cli("bench", str(tmp_path), "--timeout", "5",
                   "--jobs", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert "bench_report.txt" in err


def test_cli_as_module(tmp_path, corpus_dir):
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "catafuse.cli", "solve", "--transformed",
         str(src), "--timeout", "90"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "unsat"


@pytest.mark.parametrize("value", ["abc", "-5", "0", "nan", "inf"])
def test_chc_timeout_is_checked_like_the_option(value, monkeypatch, capsys):
    """A bad CHC_TIMEOUT is a usage error (exit 2), as the same --timeout
    is, and not a traceback or a limit that no solve can meet."""
    monkeypatch.setenv("CHC_TIMEOUT", value)
    with pytest.raises(SystemExit) as e:
        run_cli("solve", "missing.chc")
    assert e.value.code == 2
    assert "--timeout" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_timeout_must_be_finite(value, capsys):
    """A limit that no clock reaches, or none at all, is a usage error, not a
    crash while waiting for the solver, or a solver that ignores its limit."""
    with pytest.raises(SystemExit) as e:
        run_cli("solve", "missing.chc", "--timeout", value)
    assert e.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_huge_finite_timeout_solves(tmp_path, corpus_dir, capsys):
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    assert run_cli("solve", "--transformed", str(src), "--timeout", "1e300") \
        == 0
    assert capsys.readouterr().out.strip() == "unsat"


def test_verify_at_one_limit_starts_one_solver_child(tmp_path, corpus_dir,
                                                     capsys, monkeypatch):
    monkeypatch.delenv("CHC_SOLVER", raising=False)
    monkeypatch.setattr(shutil, "which", lambda name: None)  # no z3
    starts = []
    spawn = engine_mod._spawn

    def counted(cmd):
        starts.append(cmd)
        return spawn(cmd)

    monkeypatch.setattr(engine_mod, "_spawn", counted)
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "append_len_unsat.chc").read_text())
    # a limit no other test uses: no idle solver child is waiting for it
    assert run_cli("verify", str(src), "--timeout", "95.5") == 0
    assert "agree" in capsys.readouterr().out
    solver_starts = [c for c in starts if "catafuse.refsolver.horn" in c]
    assert len(solver_starts) == 1


def test_chc_timeout_sets_the_default_limit(monkeypatch):
    monkeypatch.setenv("CHC_TIMEOUT", "12.5")
    assert build_parser().parse_args(["solve", "x.chc"]).timeout == 12.5
    args = build_parser().parse_args(["solve", "x.chc", "--timeout", "3"])
    assert args.timeout == 3.0


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_bench_refuses_a_job_count_below_one(jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("bench", str(tmp_path), "--jobs", jobs)
    assert e.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "solve", "verify"])
def test_out_belongs_to_transform(command, tmp_path, capsys):
    """Only transform writes files: another subcommand refuses --out with a
    usage error rather than ignoring it."""
    with pytest.raises(SystemExit) as e:
        run_cli(command, str(tmp_path), "--out", str(tmp_path / "o"))
    assert e.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
