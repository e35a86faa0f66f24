import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from catafuse import engine as engine_mod
from catafuse import solver as solver_mod
from catafuse.engine import ConstraintEngine, bundled_cmd
from catafuse.parser import parse_problem
from catafuse.refsolver import horn
from catafuse.solver import (BenchReport, SolveResult, SolverConfig,
                             bench_one, check_equisat, expected_tag, run_bench,
                             solve, solve_file, write_reports)
from catafuse.smtlib import emit_smtlib
from catafuse.transform import transform_problem, transformed_problem
from procs import HAS_CHILDREN_LISTS, own_children


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


def test_bench_fails_a_row_whose_verdicts_disagree(tmp_path, corpus_dir):
    # a solver that answers sat on a script that declares a fused predicate
    # (the transformed set) and unsat on any other (the original)
    code = ("import sys; print('sat' if 'new1' in open(sys.argv[-1]).read() "
            "else 'unsat')")
    src = tmp_path / "append_len_sat.chc"
    src.write_text((corpus_dir / "append_len_sat.chc").read_text())
    row = bench_one(src, SolverConfig(cmd=[sys.executable, "-c", code],
                                      timeout=30.0))
    assert (row.expected, row.original, row.transformed) == \
        ("sat", "unsat", "sat")
    assert not row.ok
    assert row.note == "disagree (original=unsat, transformed=sat)"
    # the text report says why the row failed
    assert "append_len_sat: disagree (original=unsat, transformed=sat)\n" \
        in BenchReport([row]).to_text()


TRIVIAL_HORN = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (p x))))
(assert (forall ((x Int)) (=> (and (p x) (= x 0)) false)))
(check-sat)
"""


@pytest.fixture(scope="module")
def transformed(corpus_dir) -> dict[str, str]:
    """The emitted transformed script of every corpus problem, by name."""
    scripts = {}
    for src in sorted(corpus_dir.glob("*.chc")):
        pb = parse_problem(src.read_text())
        eng = ConstraintEngine()
        try:
            tp = transformed_problem(pb, transform_problem(pb, eng))
        finally:
            eng.close()
        scripts[src.stem] = emit_smtlib(tp)
    return scripts


def _bundled(limit: float) -> tuple[SolverConfig, tuple[str, ...]]:
    """The bundled solver at `limit`, and the key of its idle session
    children; a limit that no other test uses gives a test children of its
    own."""
    config = SolverConfig(bundled_cmd("catafuse.refsolver.horn"), limit)
    return config, tuple(config.cmd + ["-t", str(limit), "-"])


def _idle_pids(key: tuple[str, ...]) -> list[int]:
    return [child.proc.pid for child in engine_mod._idle.get(key, [])]


@pytest.fixture()
def lent(monkeypatch):
    """The pid of every child `solve_file` lends."""
    pids = []

    def lend_child(cmd):
        child = engine_mod.lend_child(cmd)
        pids.append(child.proc.pid)
        return child

    monkeypatch.setattr(solver_mod, "lend_child", lend_child)
    return pids


@pytest.fixture()
def spawned(monkeypatch):
    """The command of every child the engine starts."""
    cmds = []
    spawn = engine_mod._spawn

    def counted(cmd):
        cmds.append(tuple(cmd))
        return spawn(cmd)

    monkeypatch.setattr(engine_mod, "_spawn", counted)
    return cmds


def test_consecutive_solves_share_one_session_child(tmp_path, lent, spawned):
    config, key = _bundled(91.0)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    for _ in range(3):
        assert solve_file(script, config).verdict == "unsat"
    assert len(lent) == 3 and len(set(lent)) == 1
    # one start, and no child started ahead beside it
    assert spawned == [key]
    assert key not in engine_mod._started
    assert _idle_pids(key) == lent[:1]


def test_dead_idle_session_child_is_replaced(tmp_path, lent):
    config, key = _bundled(92.0)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    solve_file(script, config)
    [dead] = engine_mod._idle[key]
    dead.proc.kill()
    dead.proc.wait()
    assert solve_file(script, config).verdict == "unsat"
    assert lent[1] != dead.proc.pid
    assert dead.stderr.closed
    assert _idle_pids(key) == [lent[1]]


def test_session_limit_runs_from_check_sat(tmp_path, transformed, lent):
    # an idle child spends none of the next solve's limit waiting
    script = tmp_path / "bst_insert_sat.transformed.smt2"
    script.write_text(transformed["bst_insert_sat"])
    config, key = _bundled(1.0)
    solve_file(script, config)
    time.sleep(2)
    r = solve_file(script, config)
    assert lent[0] == lent[1]
    assert r.verdict == "unknown"
    assert 1.0 <= r.seconds < 5


def test_solves_at_once_get_a_session_child_each(tmp_path, monkeypatch):
    """More threads than cores solve three times each; the first solve of
    every thread holds its child until all four have one."""
    config, key = _bundled(93.0)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    barrier = threading.Barrier(4, timeout=60)
    lock = threading.Lock()
    pids: list[int] = []

    def lend_child(cmd):
        child = engine_mod.lend_child(cmd)
        with lock:
            pids.append(child.proc.pid)
            first = len(pids) <= 4
        if first:
            barrier.wait()
        return child

    monkeypatch.setattr(solver_mod, "lend_child", lend_child)
    verdicts: list[str] = []
    errors: list[BaseException] = []

    def work():
        try:
            for _ in range(3):
                verdicts.append(solve_file(script, config).verdict)
        except Exception as e:  # noqa: BLE001 -- reported below
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert verdicts == ["unsat"] * 12
    assert len(set(pids[:4])) == 4
    # every child went back to the idle list, once
    idle = _idle_pids(key)
    assert sorted(idle) == sorted(set(pids))
    assert all(c.proc.poll() is None for c in engine_mod._idle[key])


def test_one_session_answers_the_decide_scripts_as_files_are(
        tmp_path, corpus_dir, transformed, lent):
    """The scripts of the benchmark's decide workload, solved in a row by
    one session child, each by a child of its own, and in-process, where
    no helper races."""
    config, key = _bundled(300.5)
    paths = []
    for src in sorted(corpus_dir.glob("*.chc")):
        if not expected_tag(src.read_text()) or src.stem == "insertion_sort":
            continue
        path = tmp_path / f"{src.stem}.smt2"
        path.write_text(transformed[src.stem])
        paths.append(path)
    assert len(paths) == 20
    in_session = [solve_file(p, config).verdict for p in paths]
    assert len(set(lent)) == 1
    alone = [subprocess.run(config.cmd + ["-t", "300.5", str(p)],
                            capture_output=True, text=True,
                            timeout=330).stdout.split()[:1] for p in paths]
    assert [[v] for v in in_session] == alone
    assert in_session == [horn.solve_script(p.read_text(), 300.5)
                          for p in paths]


def _children_for(pid: int, seconds: float) -> set[int]:
    """The processes that `pid` runs at some point in the next `seconds`."""
    seen: set[int] = set()
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        seen.update(own_children(pid))
        time.sleep(0.01)
    return seen


# a script that the bundled solver refuses: its assertion is no clause
REFUSED = "(assert (exists ((x Int)) (> x 0)))\n(check-sat)\n"


@pytest.mark.skipif(not HAS_CHILDREN_LISTS, reason="reads /proc")
def test_session_child_races_and_leaves_no_process(transformed):
    """Whatever ends a solve, the session child reaps the helper it races
    against its first refutation before it answers: a helper's sat, the
    pipeline's unsat, the limit, a refused script, and `(exit)`."""
    child = engine_mod._spawn(bundled_cmd("catafuse.refsolver.horn")
                              + ["-t", "2", "-"])
    try:
        for script, want in ((transformed["bst_size_sat"], "sat"),
                             (transformed["append_len_unsat"], "unsat"),
                             (transformed["bst_insert_sat"], "unknown"),
                             (REFUSED, "unknown")):
            start = time.monotonic()
            child.send(script + "(reset)")
            assert child.read_verdict(start + 30) == want
            assert time.monotonic() - start < 3
            assert own_children(child.proc.pid) == []
        # the session reads (exit) as soon as it has answered
        child.send(transformed["bst_insert_sat"] + "(exit)")
        # the first refutation, and so the helper, has 0.4 s of the limit
        helpers = _children_for(child.proc.pid, 0.3)
        assert child.read_verdict(time.monotonic() + 30) == "unknown"
        assert child.proc.wait(timeout=10) == 0
    finally:
        child.discard()
    assert len(helpers) == 1
    assert not _running(helpers.pop())


@pytest.mark.skipif(not HAS_CHILDREN_LISTS, reason="reads /proc")
def test_file_mode_races_and_leaves_no_process(tmp_path, transformed):
    script = tmp_path / "bst_insert_sat.smt2"
    script.write_text(transformed["bst_insert_sat"])
    with subprocess.Popen(bundled_cmd("catafuse.refsolver.horn")
                          + ["-t", "2", str(script)],
                          stdout=subprocess.PIPE, text=True) as proc:
        helpers = _children_for(proc.pid, 0.3)
        out, _ = proc.communicate(timeout=30)
    assert out.split() == ["unknown"]
    assert len(helpers) == 1
    assert not _running(helpers.pop())


# a stand-in session that reads its script and then never answers
SILENT_SESSION = """
import sys, time
for line in sys.stdin:
    if line.startswith("(check-sat"):
        time.sleep(60)
"""


def test_overrunning_session_child_is_killed(tmp_path, monkeypatch, lent):
    monkeypatch.setattr(solver_mod, "KILL_GRACE", 0.5)
    cmd = [sys.executable, "-S", "-c", SILENT_SESSION, "fake.refsolver.horn"]
    config = SolverConfig(cmd, 0.5)
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    r = solve_file(script, config)
    assert r.verdict == "timeout"
    assert 1.0 <= r.seconds < 10
    key = tuple(cmd + ["-t", "0.5", "-"])
    assert lent[0] not in _idle_pids(key)
    assert not _running(lent[0])


def test_dead_session_child_reports_its_stderr(tmp_path, lent):
    code = "import sys; sys.stdin.readline(); sys.exit('solver crashed')"
    cmd = [sys.executable, "-S", "-c", code, "fake.refsolver.horn"]
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    with pytest.raises(RuntimeError) as err:
        solve_file(script, SolverConfig(cmd, 30.0))
    assert "exit status 1" in str(err.value)
    assert "solver crashed" in str(err.value)
    assert lent[0] not in _idle_pids(tuple(cmd + ["-t", "30.0", "-"]))


@pytest.mark.parametrize("bundled", [True, False])
def test_a_huge_finite_limit_is_waited_out(tmp_path, bundled):
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    cmd = bundled_cmd("catafuse.refsolver.horn") if bundled else \
        [sys.executable, "-S", "-c", "print('unsat')"]
    assert solve_file(script, SolverConfig(cmd, 1e300)).verdict == "unsat"


def test_script_without_one_check_sat_is_solved_alone(tmp_path, lent):
    config, _ = _bundled(94.0)
    script = tmp_path / "q.smt2"
    for text in (TRIVIAL_HORN.replace("(check-sat)", ""),
                 TRIVIAL_HORN + "(check-sat)\n",
                 # a check-sat in a comment or a string is no command
                 TRIVIAL_HORN.replace("(check-sat)",
                                      "; solved by (check-sat) below"),
                 TRIVIAL_HORN.replace(
                     "(check-sat)",
                     '(set-info :source "asks (check-sat) once")')):
        script.write_text(text)
        assert solve_file(script, config).verdict == "unsat"
    assert lent == []


def _running(pid: int) -> bool:
    """Whether `pid` is alive: neither gone nor a zombie that its new parent
    has not reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _run_parent(code: str) -> subprocess.CompletedProcess:
    src = Path(engine_mod.__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def _gone_within(pid: int, seconds: float) -> bool:
    end = time.monotonic() + seconds
    while _running(pid) and time.monotonic() < end:
        time.sleep(0.05)
    return not _running(pid)


# a stand-in session that answers once and then reads nothing more
DEAF_SESSION = """
import sys, time
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("unsat", flush=True)
        time.sleep(60)
"""


def test_idle_session_child_ends_with_its_parent(tmp_path):
    # the stand-in reads no end of input, so only the exit hook can end it
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    code = f"""
import sys
from catafuse import engine
from catafuse.solver import SolverConfig, solve_file
cmd = [sys.executable, "-S", "-c", {DEAF_SESSION!r}, "fake.refsolver.horn"]
print(solve_file({str(tmp_path / "q.smt2")!r}, SolverConfig(cmd, 30.0)).verdict)
[child] = engine._idle[tuple(cmd + ["-t", "30.0", "-"])]
print(child.proc.pid, flush=True)
"""
    proc = _run_parent(code)
    assert proc.returncode == 0, proc.stderr
    verdict, pid = proc.stdout.split()
    assert verdict == "unsat"
    try:
        assert _gone_within(int(pid), 5)
    finally:
        if _running(int(pid)):
            os.kill(int(pid), signal.SIGKILL)


def test_idle_session_child_ends_when_its_parent_is_killed(tmp_path):
    # no exit hook runs: the child ends at the end of its input
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    code = f"""
import os, signal
from catafuse import engine
from catafuse.solver import SolverConfig, solve_file
config = SolverConfig(engine.bundled_cmd("catafuse.refsolver.horn"), 30.0)
print(solve_file({str(tmp_path / "q.smt2")!r}, config).verdict)
[child] = engine._idle[tuple(config.cmd + ["-t", "30.0", "-"])]
print(child.proc.pid, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""
    proc = _run_parent(code)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    verdict, pid = proc.stdout.split()
    assert verdict == "unsat"
    try:
        assert _gone_within(int(pid), 10)
    finally:
        if _running(int(pid)):
            os.kill(int(pid), signal.SIGKILL)


def test_one_child_of_each_command_waits_and_ends_with_its_parent(tmp_path):
    # three oracle starts leave the child started ahead for a fourth, two
    # solves at one limit the session that answered them
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    code = f"""
from catafuse import engine
from catafuse.solver import SolverConfig, solve_file
from catafuse.syntax import TRUE
oracle_cmd = engine.bundled_cmd("catafuse.refsolver.oracle")
for _ in range(3):
    oracle = engine.Oracle(oracle_cmd)
    assert oracle.check(engine.query_text(TRUE)) == "sat"
    oracle.close()
config = SolverConfig(engine.bundled_cmd("catafuse.refsolver.horn"), 30.0)
for _ in range(2):
    assert solve_file({str(tmp_path / "q.smt2")!r}, config).verdict == "unsat"
waiting = engine._idle
assert sorted(waiting) == sorted([tuple(oracle_cmd),
                                  tuple(config.cmd + ["-t", "30.0", "-"])])
for children in waiting.values():
    [child] = children
    assert child.proc.poll() is None
    print(child.proc.pid, flush=True)
"""
    proc = _run_parent(code)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    try:
        assert all(_gone_within(pid, 5) for pid in pids)
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_solver_naming_its_file_gets_no_spare(tmp_path):
    code = "import sys; print(open(sys.argv[1]).read().split()[0])"
    config = SolverConfig(cmd=[sys.executable, "-S", "-c", code], timeout=30)
    script = tmp_path / "q.smt2"
    for verdict in ("sat", "unsat", "unknown"):
        script.write_text(verdict + "\n")
        assert solve_file(script, config).verdict == verdict
    started = engine_mod._started | set(engine_mod._idle)
    assert not any(k[:len(config.cmd)] == tuple(config.cmd) for k in started)


def test_bundled_solver_is_named_by_its_module(tmp_path, monkeypatch):
    assert SolverConfig(cmd=bundled_cmd("catafuse.refsolver.horn")) \
        .identity() == "catafuse.refsolver.horn (bundled)"
    # a bundled child that exits with no verdict: the solver refusing an
    # argument it does not know, with its usage and status 2
    script = tmp_path / "p.smt2"
    script.write_text("(check-sat)\n")
    config = SolverConfig(
        cmd=bundled_cmd("catafuse.refsolver.horn") + ["--no-such-option"],
        timeout=30.0)
    with pytest.raises(RuntimeError) as err:
        solve_file(script, config)
    assert "solver catafuse.refsolver.horn --no-such-option (bundled) " \
        "exited with status 2 and no verdict; stderr: usage: horn" \
        in str(err.value)
    assert engine_mod._LAUNCH not in str(err.value)
    # and one that cannot be launched at all
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    with pytest.raises(engine_mod.OracleError) as err:
        engine_mod.Oracle(bundled_cmd("catafuse.refsolver.oracle")).check(
            engine_mod.query_text(parse_problem("false.\n").queries[0]
                                  .constraint))
    assert "cannot launch catafuse.refsolver.oracle (bundled)" \
        in str(err.value)
    assert engine_mod._LAUNCH not in str(err.value)
