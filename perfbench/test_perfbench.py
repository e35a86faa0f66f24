"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import run
import spans
from stats import DECIDED, FAILED, UNDECIDED, Ratio, judge, tail


def test_tail_keeps_ten_samples_beyond_the_percentile():
    xs = [float(i) for i in range(1, 31)]
    t = tail(xs)
    assert t.value == 20.0 and t.n == 30
    assert sum(x > t.value for x in xs) == 10
    assert round(t.percentile, 1) == 66.7
    # one more sample moves the percentile up, never the count beyond below 10
    t2 = tail(xs + [31.0])
    assert sum(x > t2.value for x in xs + [31.0]) == 10
    assert t2.percentile > t.percentile


def test_tail_needs_twenty_samples():
    assert tail([float(i) for i in range(19)]) is None
    t = tail([float(i) for i in range(20)])
    assert t.percentile == 50.0 and t.value == 9.0


def _span(sid, name, start, end, parent=None, result=None):
    return spans.Span(sid, name, start, end, parent, "p", result)


def test_self_time_subtracts_direct_children_only():
    s = [_span(2, "g", 2.0, 3.0, 1), _span(1, "a", 1.0, 4.0, 0),
         _span(3, "b", 5.0, 6.0, 0), _span(0, "root", 0.0, 10.0)]
    own = spans.self_times(s)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_layer_totals_self_time_and_phase_split():
    s = [_span(1, "engine.oracle.check", 1.0, 3.0, 0, "unknown"),
         _span(0, "engine.is_satisfiable", 0.5, 3.5),
         _span(2, "transform.define_fn", 0.0, 4.0, None),
         _span(5, "refsolver.qfcore.check_sat", 5.0, 6.0, 4, "unknown"),
         _span(4, "refsolver.horn.refute", 4.5, 6.5, 3),
         _span(7, "refsolver.qfcore.check_sat", 7.0, 7.5, 6, "sat"),
         _span(6, "refsolver.horn.houdini", 6.5, 8.0, 3),
         _span(3, "refsolver.horn.solve_script", 4.0, 9.0)]
    s[1] = s[1]._replace(parent=2)
    out = spans.layer_totals(s)
    assert out["engine.self_s"] == 1.0            # 3.0 minus the oracle's 2.0
    assert out["transform.self_s"] == 1.0         # 4.0 minus the engine's 3.0
    assert out["engine.oracle.check.unknown"] == 1
    assert out["refsolver.qfcore.check_sat.calls"] == 2
    assert out["refsolver.qfcore.check_sat.under_refute.calls"] == 1
    assert out["refsolver.qfcore.check_sat.under_refute.unknown"] == 1
    assert out["refsolver.qfcore.check_sat.under_houdini.s"] == 0.5
    assert "refsolver.qfcore.check_sat.under_houdini.unknown" not in out
    assert out["refsolver.horn.refute.self_s"] == 1.0


def test_wrappers_catch_module_lookups_and_unwrap():
    mod = SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    original = mod.leaf
    tracer = spans.Tracer()
    tracer.wrap(mod, "leaf", "m.leaf", keep_result=True)
    tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer(1) == 4
    names = {s.name: s for s in tracer.spans}
    assert names["m.leaf"].parent == names["m.outer"].id
    tracer.unwrap()
    assert mod.leaf is original


def test_ratios_carry_their_base():
    r = Ratio(3, 12)
    assert r.value == 0.25 and r.base == 12
    assert "3/12" in str(r)
    assert Ratio(0, 0).value is None and "base 0" in str(Ratio(0, 0))


def test_cache_counting_gives_hits_over_lookups():
    tracer = spans.Tracer()
    engine = SimpleNamespace(_sat_cache={"a": "sat"}, _ent_cache={})
    tracer.count_cache(engine)
    engine._sat_cache.get("a")
    engine._sat_cache.get("b")
    engine._ent_cache.get(("a", "b"))
    assert tracer.counts == Counter({"engine.cache_lookups": 3,
                                     "engine.cache_hits": 1})


def test_gate_counts_a_contradicted_tag_as_failed_and_unknown_as_undecided():
    assert judge("sat", "unsat") == FAILED
    assert judge("unsat", "unsat") == DECIDED
    assert judge("sat", "") == DECIDED
    assert judge("unknown", "sat") == UNDECIDED
    assert judge("timeout", "unsat") == UNDECIDED

    def record(expected, verdicts):
        item = run.Item("p", Path("p.chc"), expected, run.SOLVE_TRANSFORMED, 1.0)
        solves = [(k, v, 0.1) for k, v in verdicts]
        return run.Record(item, 1 + len(solves), 0.2, 0.1, solves, [],
                          Counter(), "")

    t = run.tally([record("unsat", [("original", "unknown"),
                                    ("transformed", "sat")]),
                   record("unsat", [("original", "unsat"),
                                    ("transformed", "timeout")])], 0, [])
    assert t["attempted"] == 6 and t["solves"] == 4
    assert t["failed"] == 1 and t["decided"] == 1


def test_gate_counts_errors_and_unparsable_scripts():
    item = run.Item("p", Path("p.chc"), "sat", run.SOLVE_TRANSFORMED, 1.0)
    broken = run.Record(item, 0, 0.1, 0.1, [], [], Counter(), "OracleError: x")
    emitted = run.Record(item._replace(name="q"), 2, 0.1, 0.1,
                         [("transformed", "sat", 0.1)], [], Counter(), "")
    t = run.tally([broken, emitted], 1, ["q.transformed.smt2: UnsupportedSmt"])
    assert t["attempted"] == 1 + 2 + 1 and t["failed"] == 2
