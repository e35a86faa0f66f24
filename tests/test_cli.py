import subprocess
import sys

import pytest

from catafuse.cli import main


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


def test_emit_obligations_flag(tmp_path, corpus_dir):
    src = tmp_path / "s.chc"
    src.write_text((corpus_dir / "reverse_sum_sat.chc").read_text())
    run_cli("transform", str(src), "--emit-obligations")
    assert (tmp_path / "s.sum.functionality.smt2").exists()
    assert (tmp_path / "s.sum.totality.smt2").exists()


def test_solve_prints_verdict(tmp_path, corpus_dir, capsys):
    src = tmp_path / "u.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    assert run_cli("solve", "--transformed", str(src), "--timeout", "90") == 0
    assert capsys.readouterr().out.strip() == "unsat"


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


def test_cli_as_module(tmp_path, corpus_dir):
    src = tmp_path / "m.chc"
    src.write_text((corpus_dir / "member_unsat.chc").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "catafuse.cli", "solve", "--transformed",
         str(src), "--timeout", "90"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "unsat"
