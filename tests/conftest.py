from __future__ import annotations

from pathlib import Path

import pytest

from catafuse import engine as engine_mod
from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from procs import HAS_CHILDREN_LISTS, own_children

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture(autouse=True)
def waiting_children_own_no_process():
    """A child waiting on the engine's lists has answered, so no process of
    its own is left, such as the CHC solver's helper: a leak, as a child or
    file left open is."""
    yield
    if not HAS_CHILDREN_LISTS:
        return
    with engine_mod._waiting_lock:
        waiting = [c.proc.pid for cs in engine_mod._idle.values() for c in cs]
    left = {pid: kids for pid in waiting if (kids := own_children(pid))}
    assert left == {}


@pytest.fixture(scope="session")
def engine():
    eng = ConstraintEngine()
    yield eng
    eng.close()


@pytest.fixture(scope="session")
def insertion_sort_text() -> str:
    return (CORPUS / "insertion_sort.chc").read_text(encoding="utf-8")


@pytest.fixture()
def insertion_sort(insertion_sort_text):
    return parse_problem(insertion_sort_text)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS
