import importlib.util
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import catafuse
from catafuse import engine as engine_mod
from catafuse.engine import default_oracle_cmd, private_dir
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


# a parent that asks a bundled oracle and a bundled solver session once each
CHILDREN_ANSWER = """
from catafuse.engine import Oracle, bundled_cmd, bytecode_cache
from catafuse.solver import SolverConfig, solve_file
from catafuse.syntax import INT, FComp, IntConst, Var
oracle = Oracle(bundled_cmd("catafuse.refsolver.oracle"))
print(oracle.check(FComp(">", Var("X", INT), IntConst(0))))
oracle.close()
config = SolverConfig(cmd=bundled_cmd("catafuse.refsolver.horn"), timeout=30)
print(solve_file("q.smt2", config).verdict)
print(bytecode_cache() or "none")
"""


def _children_answer(tmp_path: Path) -> tuple[Path, list[str]]:
    """Runs CHILDREN_ANSWER on a copy of the package, with bytecode writing
    off and `tmp_path/tmp` as the temporary directory: the copy's root and
    what the parent printed."""
    root = tmp_path / "src"
    shutil.copytree(Path(catafuse.__file__).resolve().parent,
                    root / "catafuse",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    (tmp_path / "tmp").mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("CHC_ORACLE", "CHC_SOLVER")}
    env.update(PYTHONPATH=str(root), TMPDIR=str(tmp_path / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILDREN_ANSWER], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(root.rglob("__pycache__")) == []
    return root, proc.stdout.split()


def _bytecode_dir(tmp_path: Path) -> Path:
    return tmp_path / "tmp" / f"catafuse-{os.getuid()}-bytecode"


def _child_modules(root: Path) -> set[str]:
    """The package's modules that the oracle or the solver child loads,
    themselves included."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import catafuse.refsolver.oracle, catafuse.refsolver.horn; "
            "print(*(m for m in sys.modules if m.startswith('catafuse')))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(root)], capture_output=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_bundled_children_share_a_private_bytecode_cache(tmp_path,
                                                         monkeypatch):
    root, out = _children_answer(tmp_path)
    cache = _bytecode_dir(tmp_path)
    assert out == ["sat", "unsat", str(cache)]
    assert stat.S_IMODE(os.lstat(cache).st_mode) == 0o700
    # where the children's import system put each module's bytecode
    monkeypatch.setattr(sys, "pycache_prefix", str(cache))
    modules = _child_modules(root)
    assert {"catafuse.syntax", "catafuse.refsolver.oracle",
            "catafuse.refsolver.horn"} <= modules
    for name in modules:
        source = root.joinpath(*name.split("."))
        source = source / "__init__.py" if source.is_dir() \
            else source.with_suffix(".py")
        assert os.path.exists(importlib.util.cache_from_source(source)), name


@pytest.mark.parametrize("kind", ["world-writable", "symlink"])
def test_untrusted_bytecode_cache_is_not_used(tmp_path, kind):
    cache = _bytecode_dir(tmp_path)
    cache.parent.mkdir()
    if kind == "symlink":
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        cache.symlink_to(target)
    else:
        target = cache
        cache.mkdir()
        cache.chmod(0o777)
    _, out = _children_answer(tmp_path)
    assert out == ["sat", "unsat", "none"]
    assert list(target.iterdir()) == []


def test_private_dir_refuses_what_it_cannot_trust(tmp_path, monkeypatch):
    fresh = tmp_path / "fresh"
    assert private_dir(str(fresh)) == str(fresh)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o700
    assert private_dir(str(fresh)) == str(fresh)  # made once, then reused
    (tmp_path / "file").write_text("")
    assert private_dir(str(tmp_path / "file")) == ""
    assert private_dir(str(tmp_path / "no" / "parent")) == ""
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert private_dir(str(fresh)) == ""  # another user's directory


def test_bytecode_cache_is_made_once_across_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(engine_mod, "_bytecode_dir", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    made = []
    mkdir = os.mkdir

    def counted_mkdir(path, mode):
        made.append(path)
        mkdir(path, mode)
    monkeypatch.setattr(os, "mkdir", counted_mkdir)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: results.append(engine_mod.bundled_cmd("m")))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = str(tmp_path / f"catafuse-{os.getuid()}-bytecode")
    assert made == [want]
    assert len(results) == 8 and all(cmd[5] == want for cmd in results)
