"""Spans recorded around the program's public functions, from outside.

The tracer replaces module and class attributes with timing wrappers. Every
caller inside the program reaches these names through a module or attribute
lookup, so each call is caught without changing the program. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    problem: str | None
    result: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.problem: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep_result: bool = False) -> None:
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(
                    sid, name, start, end, parent, tracer.problem,
                    result if keep_result and isinstance(result, str) else None))

        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def close_open_spans(self) -> None:
        """Forget the calls an interrupt unwound (a killed replay), so later
        spans do not take them as parents."""
        self._stack.clear()

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count_cache(self, engine) -> None:
        """Count lookups and hits of an engine's memo tables (the lookups
        are exactly the queries that simplification did not settle)."""
        for attr in ("_sat_cache", "_ent_cache"):
            table = getattr(engine, attr, None)
            if isinstance(table, dict):
                setattr(engine, attr, _CountingCache(table, self.counts))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


class _CountingCache(dict):
    def __init__(self, table: dict, counts: Counter) -> None:
        super().__init__(table)
        self._counts = counts

    def get(self, key, default=None):
        hit = super().get(key, default)
        self._counts["engine.cache_lookups"] += 1
        if hit is not None:
            self._counts["engine.cache_hits"] += 1
        return hit


def install(tracer: Tracer, mods) -> None:
    """Wrap each layer's public entry points, named after its module."""
    w = tracer.wrap
    w(mods.parser, "parse_problem", "parser.parse_problem")
    # validate_problem is reached through transform's own import of it
    w(mods.transform, "validate_problem", "catas.validate_problem")
    w(mods.transform, "transform_problem", "transform.transform_problem")
    for m in ("definition_fixpoint", "unfold_all", "strengthen_all",
              "define_fn", "fold_clause"):
        w(mods.transform.Transformer, m, f"transform.{m}")
    for m in ("is_satisfiable", "entails", "project", "generalize"):
        w(mods.engine.ConstraintEngine, m, f"engine.{m}")
    w(mods.engine.Oracle, "check", "engine.oracle.check", keep_result=True)
    w(mods.engine.Oracle, "_start", "engine.oracle.spawn")
    w(mods.smtlib, "emit_smtlib", "smtlib.emit_smtlib")
    w(mods.solver, "solve_file", "solver.solve_file")
    w(mods.horn, "solve_script", "refsolver.horn.solve_script")
    # read_script is the SMT-LIB reader: parse_sexps plus SmtContext
    w(mods.horn, "read_script", "refsolver.smtparse.read_script")
    w(mods.horn, "refute", "refsolver.horn.refute")
    w(mods.horn, "houdini", "refsolver.horn.houdini")
    w(mods.qfcore, "check_sat", "refsolver.qfcore.check_sat", keep_result=True)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


PHASES = {"refsolver.horn.refute": "under_refute",
          "refsolver.horn.houdini": "under_houdini"}


def _phase(s: Span, by_id: dict[int, Span]) -> str | None:
    p = s.parent
    while p is not None:
        anc = by_id[p]
        if anc.name in PHASES:
            return PHASES[anc.name]
        p = anc.parent
    return None


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """calls, seconds and self seconds per span name, the engine and
    transformer self time, and the QF core split by calling phase."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += dur
        out[f"{s.name}.self_s"] += own[s.id]
        if s.name.startswith("transform."):
            out["transform.self_s"] += own[s.id]
        elif s.name.startswith("engine.") and \
                not s.name.startswith("engine.oracle."):
            out["engine.self_s"] += own[s.id]
        if s.result == "unknown":
            out[f"{s.name}.unknown"] += 1
        if s.name == "refsolver.qfcore.check_sat":
            phase = _phase(s, by_id)
            if phase is not None:
                key = f"{s.name}.{phase}"
                out[f"{key}.calls"] += 1
                out[f"{key}.s"] += dur
                if s.result == "unknown":
                    out[f"{key}.unknown"] += 1
    return dict(out)
