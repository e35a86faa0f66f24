import os
import subprocess
import sys
from pathlib import Path

import pytest

import catafuse

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
