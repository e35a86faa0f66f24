import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catafuse
from catafuse.engine import default_oracle_cmd
from catafuse.solver import default_solver_cmd

# what `python -m catafuse.refsolver.oracle` / `.horn` may load of the package
CHILD_MODULES = ("catafuse", "catafuse.syntax", "catafuse.refsolver")


def test_solver_children_import_only_syntax_and_refsolver():
    src = Path(catafuse.__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    code = ("import sys, catafuse.refsolver.oracle, catafuse.refsolver.horn\n"
            "print(*sorted(m for m in sys.modules if m.startswith('catafuse')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "catafuse.refsolver.horn" in loaded
    extra = [m for m in loaded if m not in CHILD_MODULES
             and not m.startswith("catafuse.refsolver.")]
    assert extra == []


TRIVIAL_QUERY = "(declare-const x Int)\n(assert (> x 0))\n(check-sat)\n"
TRIVIAL_HORN = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (p x))))
(assert (forall ((x Int)) (=> (and (p x) (= x 0)) false)))
(check-sat)
"""


def test_default_children_start_without_site(monkeypatch, tmp_path):
    """The default commands themselves, as the engine and the solver start
    them: every module a child imports is in its import-time report."""
    monkeypatch.delenv("CHC_ORACLE", raising=False)
    monkeypatch.delenv("CHC_SOLVER", raising=False)
    monkeypatch.setattr(shutil, "which", lambda name: None)  # no z3
    script = tmp_path / "q.smt2"
    script.write_text(TRIVIAL_HORN)
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1")
    for cmd, stdin, want in (
            (default_oracle_cmd(), TRIVIAL_QUERY, "sat"),
            (default_solver_cmd() + ["-"], TRIVIAL_HORN, "unsat"),
            (default_solver_cmd() + [str(script)], None, "unsat")):
        proc = subprocess.run(cmd, input=stdin, env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.split()[:1] == [want], proc.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "catafuse.refsolver.qfcore" in imported
        assert "site" not in imported
        extra = [m for m in imported if m.startswith("catafuse")
                 and m not in CHILD_MODULES
                 and not m.startswith("catafuse.refsolver.")]
        assert extra == []


def test_bundled_children_need_no_pythonpath(tmp_path):
    """A parent that found the package on `sys.path` alone, run from outside
    the checkout: its children find the package through their command."""
    src = Path(catafuse.__file__).resolve().parent.parent
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from catafuse.engine import Oracle, bundled_cmd
from catafuse.solver import SolverConfig, solve_file
from catafuse.syntax import INT, FComp, IntConst, Var
oracle = Oracle(bundled_cmd("catafuse.refsolver.oracle"))
print(oracle.check(FComp(">", Var("X", INT), IntConst(0))))
oracle.close()
config = SolverConfig(cmd=bundled_cmd("catafuse.refsolver.horn"), timeout=30)
for _ in range(3):  # one session child answers all three
    print(solve_file("q.smt2", config).verdict)
"""
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CHC_ORACLE", "CHC_SOLVER")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sat", "unsat", "unsat", "unsat"]


def test_public_names_load_on_first_use():
    for name in catafuse.__all__:
        assert getattr(catafuse, name) is not None
    from catafuse.solver import solve
    assert catafuse.solve is solve
    namespace: dict = {}
    exec("from catafuse import *", namespace)
    assert set(catafuse.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        catafuse.no_such_name


def _modules_after(src: Path, code: str) -> set[str]:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_solver_children_load_no_dataclasses_or_typing():
    """What importing both children adds to a bare interpreter: site hooks
    may load `typing` themselves, so only the difference counts."""
    src = Path(catafuse.__file__).resolve().parent.parent
    bare = _modules_after(src, "")
    child = _modules_after(
        src, "import catafuse.refsolver.oracle, catafuse.refsolver.horn")
    added = child - bare
    assert "catafuse.refsolver.horn" in added
    assert not added & {"dataclasses", "inspect", "typing"}


def test_engine_loads_lia_without_the_qf_core():
    """Projection needs only the integer eliminator; the rest of the QF core
    would add its import time to every transform's set-up."""
    src = Path(catafuse.__file__).resolve().parent.parent
    loaded = _modules_after(src, "import catafuse.engine")
    assert "catafuse.refsolver.lia" in loaded
    assert "catafuse.refsolver.qfcore" not in loaded
