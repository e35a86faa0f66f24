import ast
import collections
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
from catafuse import private_dir
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
    them: every module a child imports is in its import-time report. The
    launcher calls the module's `main` itself: no `runpy`, and so no
    `importlib` either."""
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
        assert [m for m in imported if m == "runpy"
                or m.split(".")[0] == "importlib"] == []
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
from catafuse.engine import Oracle, bundled_cmd, query_text
from catafuse.solver import SolverConfig, solve_file
from catafuse.syntax import INT, FComp, IntConst, Var
oracle = Oracle(bundled_cmd("catafuse.refsolver.oracle"))
print(oracle.check(query_text(FComp(">", Var("X", INT), IntConst(0)))))
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
from catafuse import bytecode_cache
from catafuse.engine import Oracle, bundled_cmd, query_text
from catafuse.solver import SolverConfig, solve_file
from catafuse.syntax import INT, FComp, IntConst, Var
oracle = Oracle(bundled_cmd("catafuse.refsolver.oracle"))
print(oracle.check(query_text(FComp(">", Var("X", INT), IntConst(0)))))
oracle.close()
config = SolverConfig(cmd=bundled_cmd("catafuse.refsolver.horn"), timeout=30)
print(solve_file("q.smt2", config).verdict)
print(bytecode_cache() or "none")
"""


def _package_copy(tmp_path: Path) -> Path:
    """A copy of the package's sources under `tmp_path/src`, its root, and
    `tmp_path/tmp` for `_parent`'s temporary directory."""
    root = tmp_path / "src"
    shutil.copytree(Path(catafuse.__file__).resolve().parent,
                    root / "catafuse",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tmp").mkdir(exist_ok=True)
    return root


def _parent(tmp_path: Path, root: Path, *args: str) -> \
        subprocess.CompletedProcess:
    """`python *args` in `tmp_path`, with the package copy at `root` on its
    path, bytecode writing off and `tmp_path/tmp` as the temporary
    directory."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CHC_ORACLE", "CHC_SOLVER")}
    env.update(PYTHONPATH=str(root), TMPDIR=str(tmp_path / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _children_answer(tmp_path: Path) -> tuple[Path, list[str]]:
    """Runs CHILDREN_ANSWER as a `_parent` of a package copy: the copy's
    root and what the parent printed."""
    root = _package_copy(tmp_path)
    (tmp_path / "q.smt2").write_text(TRIVIAL_HORN)
    proc = _parent(tmp_path, root, "-c", CHILDREN_ANSWER)
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
    monkeypatch.setattr(catafuse, "_bytecode_dir", None)
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


def test_parent_loads_the_package_from_the_bytecode_cache(tmp_path):
    """After one start has filled the cache, a parent with bytecode writing
    off loads each of the package's modules from its `.pyc` there and
    compiles none of them, but the package's own `__init__`, which the
    host's import system loads before the package can say where its
    bytecode is."""
    root = _package_copy(tmp_path)
    _parent(tmp_path, root, "-c", "import catafuse.cli")
    proc = _parent(tmp_path, root, "-v", "-c", (
        "import sys, catafuse.cli; print(*(m.__file__ for n, m in "
        "sys.modules.items() if n.startswith('catafuse.')))"))
    loaded = proc.stdout.split()
    assert str(root / "catafuse" / "cli.py") in loaded
    assert str(root / "catafuse" / "refsolver" / "lia.py") in loaded
    # `-v` reports "<pyc> matches <source>" for a `.pyc` it loaded and
    # "code object from <source>" for a source it compiled
    cached, compiled = {}, set()
    for line in proc.stderr.splitlines():
        words = line.split()
        if words[:1] == ["#"] and words[2:3] == ["matches"]:
            cached[words[3]] = words[1]
        elif line.startswith("# code object from "):
            compiled.add(line.rsplit(" ", 1)[1].strip("'"))
    cache = _bytecode_dir(tmp_path)
    for source in loaded:
        assert source in cached, source
        assert Path(cached[source]).is_relative_to(cache), source
    assert {p for p in compiled if p.startswith(str(root))} \
        == {str(root / "catafuse" / "__init__.py")}
    assert list(root.rglob("__pycache__")) == []


def test_bytecode_cache_leaves_the_rest_of_the_process_alone(tmp_path):
    """Importing the package changes neither the prefix nor the bytecode
    setting, and what is imported afterwards from elsewhere is neither
    cached nor written beside its source."""
    root = _package_copy(tmp_path)
    (tmp_path / "outside.py").write_text("VALUE = 1\n")
    code = ("import sys; print(sys.pycache_prefix, sys.dont_write_bytecode)\n"
            "import catafuse.cli\n"
            "print(sys.pycache_prefix, sys.dont_write_bytecode)\n"
            "import outside, colorsys\n"
            "print(sys.pycache_prefix, sys.dont_write_bytecode)\n")
    out = _parent(tmp_path, root, "-c", code).stdout.split()
    assert out == ["None", "True"] * 3
    cache = _bytecode_dir(tmp_path)
    pycs = list(cache.rglob("*.pyc"))
    mirror = cache / root.relative_to(root.anchor) / "catafuse"
    assert len(pycs) > 10
    assert [p for p in pycs if not p.is_relative_to(mirror)] == []
    assert list(tmp_path.rglob("__pycache__")) == []


def test_child_without_a_cache_imports_no_tempfile(monkeypatch):
    """A child whose command names no cache, because the parent could not
    trust it, still leaves the package's cache set-up to its parent."""
    monkeypatch.setattr(catafuse, "_bytecode_dir", "")
    cmd = engine_mod.bundled_cmd("catafuse.refsolver.oracle")
    assert cmd[5] == ""
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, input=TRIVIAL_QUERY, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split()[:1] == ["sat"], proc.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "catafuse.refsolver.oracle" in imported
    assert not imported & {"tempfile", "importlib.machinery"}


# only the tests call it: the brute-force catamorphism check, which moves to
# the tests once catamorphisms are proved functional and total (ROADMAP item 1)
USED_BY_TESTS_ONLY = ["catas.py: eval_cata"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own
    scope: parameters, assignment and loop targets, imports, nested
    definitions, exception names; not those it declares global."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    bound = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    bound |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
    declared_global: set[str] = set()
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, ast.alias):
            bound.add((n.asname or n.name).split(".", 1)[0])
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared_global.update(n.names)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            bound.add(n.name)
        if not isinstance(n, (*_SCOPES, ast.ClassDef)):  # those bind in theirs
            todo.extend(ast.iter_child_nodes(n))
    return bound - declared_global


def _uses(node: ast.AST, modules: set[str]) -> collections.Counter:
    """Under `node`, as if at module level: ("name", x) for each load of x
    that no enclosing local binding or parameter shadows, each import of x,
    each access m.x to a module m of `modules` and each string constant x;
    ("attr", x) for each attribute access .x."""
    found = collections.Counter()
    todo = [(node, frozenset())]
    while todo:
        n, shadowed = todo.pop()
        if isinstance(n, _SCOPES):
            shadowed = shadowed | _local_names(n)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id not in shadowed:
                found["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            found["attr", n.attr] += 1
            if isinstance(n.value, ast.Name) and n.value.id in modules \
                    and n.value.id not in shadowed:
                found["name", n.attr] += 1
        elif isinstance(n, ast.alias):
            found["name", n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found["name", n.value] += 1
        todo.extend((c, shadowed) for c in ast.iter_child_nodes(n))
    return found


def _unreferenced_definitions(package: Path) -> list[str]:
    """Each module-level function or class, and each method of such a class,
    that no code under `package` uses outside its own definition. A
    module-level definition is used by a load of its name that no local
    binding or parameter shadows, by an import, as an attribute of one of
    the package's modules (`qfcore.check_sat`) or by a string constant; a
    method only by attribute access. Dunders and decorated functions are
    exempt, since a protocol or a decorator reaches them."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.rglob("*.py"))}
    modules = {path.stem for path in trees} - {"__init__"}
    everywhere = sum((_uses(tree, modules) for tree in trees.values()),
                     collections.Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for path, tree in trees.items():
        named = [(n, "", "name") for n in tree.body if isinstance(n, defs)]
        named += [(m, f"{c.name}.", "attr") for c in tree.body
                  if isinstance(c, ast.ClassDef)
                  for m in c.body if isinstance(m, defs)]
        for node, owner, kind in named:
            name = node.name
            if (name.startswith("__") and name.endswith("__")) \
                    or node.decorator_list:
                continue
            key = kind, name
            if everywhere[key] - _uses(node, modules)[key] <= 0:
                dead.append(f"{path.relative_to(package)}: {owner}{name}")
    return dead


def test_dead_helper_tripwire_counts_only_real_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def shadowed(): pass\n"
        "def reached(): pass\n"
        "def qualified(): pass\n"
        "class T:\n"
        "    def known(self): pass\n"
        "    def used(self): pass\n"
        "def f(shadowed, known):\n"
        "    return [reached for reached in shadowed], known, T().used\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def g():\n"
        "    return a.qualified(), reached()\n", encoding="utf-8")
    assert _unreferenced_definitions(tmp_path) == [
        "a.py: shadowed", "a.py: f", "a.py: T.known", "b.py: g"]


def test_every_definition_in_the_package_is_used():
    package = Path(catafuse.__file__).resolve().parent
    assert _unreferenced_definitions(package) == USED_BY_TESTS_ONLY
