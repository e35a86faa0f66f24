"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they happen. The benchmark pass over the corpus is shared
by the criteria that need solver verdicts (3, 4, 5, 9).
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from catafuse.catas import eval_cata
from catafuse.engine import ConstraintEngine, HOLDS
from catafuse.parser import parse_problem
from catafuse.solver import SolverConfig, run_bench
from catafuse.syntax import (BOOL, FComp, FVar, INT, IntConst, PRED_TRUE,
                             TRUE, Var, conjuncts, lin, mk_and, mk_not)
from catafuse.transform import (DefinitionSet, Transformer, cata_sig,
                                def_extends)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CATEGORY = {
    "append_len_sat": "List Concatenation",
    "append_len_unsat": "List Concatenation",
    "append_ordered_sat": "List Concatenation",
    "append_ordered_unsat": "List Concatenation",
    "reverse_len_sat": "Reverse",
    "reverse_len_unsat": "Reverse",
    "reverse_sum_sat": "Reverse",
    "reverse_sum_unsat": "Reverse",
    "double_reverse_sat": "Double Reverse",
    "double_reverse_unsat": "Double Reverse",
    "insertion_sort": "Insertionsort",
    "insertion_sort_len_sat": "Insertionsort",
    "insertion_sort_flip": "Insertionsort",
    "insertion_sort_extra": "Insertionsort",
    "insertion_sort_drop": "Insertionsort",
    "snoc_ordered_sat": "Reverse w/Accumulator",
    "snoc_ordered_unsat": "Reverse w/Accumulator",
    "bst_size_sat": "Binary Search Tree",
    "bst_size_unsat": "Binary Search Tree",
    "bst_insert_sat": "Binary Search Tree",
    "member_sat": "List Membership",
    "member_unsat": "List Membership",
}


@contextmanager
def criterion(num: int, title: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {title}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} {title}: PASS ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def engine():
    eng = ConstraintEngine()
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def bench():
    """One benchmark pass over the desk corpus, shared by criteria 3/4/5/9."""
    cfg = SolverConfig(timeout=300.0, original_timeout=60.0)
    t0 = time.monotonic()
    report = run_bench(CORPUS, cfg, jobs=4)
    wall = time.monotonic() - t0
    return report, wall


def _fixture():
    return parse_problem((CORPUS / "insertion_sort.chc").read_text())


def test_criterion_1_golden_derivation(engine):
    """Unfolding the first definition yields the two expected clauses, the
    strengthened clause carries the printed B1/B2 split, and both folds
    produce the expected results, all structurally modulo renaming."""
    with criterion(1, "golden-derivation"):
        t0 = time.monotonic()
        problem = _fixture()
        tr = Transformer(problem, engine)
        defs, _ = tr.definition_fixpoint()
        gold = parse_problem((CORPUS / "insertion_sort.chc").read_text())

        unf = tr.unfold_rule(defs.by_pred["ins_sort"])
        assert len(unf) == 2
        base_case = next(c for c in unf if any(a.pred.startswith("true_")
                                               for a in c.body))
        cons_case = next(c for c in unf if c is not base_case)
        # base: the head repeats the input list, the fold outputs are equated
        assert base_case.head.args[0] == base_case.head.args[2]
        assert len(conjuncts(base_case.constraint)) == 1
        assert [a.pred for a in base_case.body
                if not a.pred.startswith("true_")] == ["ordered"]
        # cons: the two folds plus the two program atoms of the caller clause
        assert sorted(a.pred for a in cons_case.body) == \
            ["empty_list", "ord_ins", "ordered", "ordered"]

        strengthened = tr.strengthen_clause(cons_case)
        kept = [a for a in strengthened.body if a.pred == "ordered"
                and a.args[0] in set(cons_case.head.args)]
        added = [a for a in strengthened.body if a not in cons_case.body]
        assert sorted(a.pred for a in added) == ["first", "last", "ordered"]
        assert len(kept) == 2  # the matched part stayed put

        folded = tr.fold_clause(strengthened, defs)
        assert sorted(a.pred for a in folded.body) == sorted(
            [defs.by_pred["ord_ins"].name, defs.by_pred["empty_list"].name])
        assert folded.constraint == strengthened.constraint

        folded_query = tr.fold_clause(problem.queries[0], defs)
        assert [a.pred for a in folded_query.body] == \
            [defs.by_pred["ins_sort"].name]
        assert folded_query.constraint == problem.queries[0].constraint
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_fixpoint_content(engine):
    """The fixpoint contains exactly seven definitions whose signatures match the
    worked example's final list; constraints mutually entail (all true)."""
    with criterion(2, "fixpoint-content"):
        t0 = time.monotonic()
        tr = Transformer(_fixture(), engine)
        defs, _ = tr.definition_fixpoint()
        got = {(d.prog.pred, cata_sig(d.catas)) for d in defs}
        assert got == {
            ("ins_sort", (("ordered", 2),)),
            ("ord_ins", (("first", 1), ("last", 1), ("ordered", 3))),
            ("append", (("first", 3), ("last", 1), ("ordered", 3))),
            ("snoc", (("first", 2), ("last", 2), ("ordered", 2))),
            ("empty_list", (("last", 1), ("ordered", 1))),
            ("true_list_int", (("ordered", 1),)),
            ("true_list_int", (("first", 1), ("ordered", 1))),
        }
        assert len(defs) == 7
        for d in defs:
            assert engine.entails(TRUE, d.constraint) == HOLDS
            assert engine.entails(d.constraint, TRUE) == HOLDS
        assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_criterion_3_transformed_satisfiable(bench):
    """The transformed sorting fixture is proved sat within 300 s."""
    with criterion(3, "transformed-sat"):
        report, _ = bench
        row = next(r for r in report.rows if r.name == "insertion_sort")
        assert row.transformed == "sat", row
        assert row.transformed_secs < 300.0


@pytest.mark.slow
def test_criterion_4_unsat_mutants(bench):
    """Three bug-injected sorting mutants (dropped insertion, flipped
    comparison, extra head element) are proved unsat within 300 s each."""
    with criterion(4, "unsat-mutants"):
        report, _ = bench
        mutants = ["insertion_sort_drop", "insertion_sort_flip",
                   "insertion_sort_extra"]
        for name in mutants:
            row = next(r for r in report.rows if r.name == name)
            assert row.transformed == "unsat", row
            assert row.transformed_secs < 300.0


@pytest.mark.slow
def test_criterion_5_equisat_suite(bench):
    """Across the whole corpus (>= 20 problems), whenever both the original
    and the transformed verdicts are definitive they agree; no disagreement."""
    with criterion(5, "equisat-agreement"):
        report, _ = bench
        assert len(report.rows) >= 20
        definitive = {"sat", "unsat"}
        disagreements = [
            r for r in report.rows
            if r.original in definitive and r.transformed in definitive
            and r.original != r.transformed]
        assert disagreements == [], report.to_text()
        agrees = [r for r in report.rows
                  if r.original in definitive and r.transformed in definitive]
        assert agrees, "no definitive pairs at all"


def test_criterion_6_termination_and_monotonicity():
    """On every corpus problem the fixpoint terminates under the cap, each
    step extends the previous definition set, and every set is monovariant."""
    with criterion(6, "termination-monotonicity"):
        for path in sorted(CORPUS.glob("*.chc")):
            eng = ConstraintEngine()
            try:
                tr = Transformer(parse_problem(path.read_text()), eng)
                defs = DefinitionSet()
                snaps = []
                for i in range(tr.max_iterations):
                    changed = tr.definition_step(defs)
                    snaps.append(defs.snapshot())
                    per_pred = [d.prog.pred for d in defs
                                if tr.decls[d.prog.pred].kind != PRED_TRUE]
                    assert len(per_pred) == len(set(per_pred)), path.name
                    if not changed:
                        break
                else:
                    raise AssertionError(f"{path.name}: no fixpoint under cap")
                for before, after in zip(snaps, snaps[1:]):
                    for d1 in before:
                        assert any(def_extends(d1, d2, tr.engine)
                                   for d2 in after), (path.name, d1.name)
            finally:
                eng.close()


def test_criterion_7_widening_stabilization(engine):
    """100 randomized increasing chains of length 20 with <= 8 atomic
    conjuncts: the widening iteration stabilizes within |conjuncts(d0)|
    steps and both generalization postconditions hold at every step."""
    with criterion(7, "widening-stabilization"):
        rng = random.Random(2024)
        vs = [Var(n, INT) for n in "XYZ"]
        bs = [Var(n, BOOL) for n in "PQ"]

        def atom(bound):
            if rng.random() < 0.25:
                b = rng.choice(bs)
                return FVar(b) if rng.random() < 0.5 else mk_not(FVar(b))
            a, c = rng.sample(vs, 2)
            return FComp("=<", lin({a: 1, c: -1}, 0), IntConst(bound))

        for _ in range(100):
            k = rng.randint(1, 8)
            bounds = [rng.randint(0, 4) for _ in range(k)]
            chain = []
            for step in range(20):
                conj = [atom(b + step) for b in bounds[: max(1, k - step // 6)]]
                chain.append(mk_and(*conj))
            d = chain[0]
            budget = len(conjuncts(d))
            stable_at = None
            for i, c in enumerate(chain[1:], start=1):
                nxt = engine.generalize(d, c)
                assert set(conjuncts(nxt)) <= set(conjuncts(d))
                assert engine.entails(d, nxt) == HOLDS
                assert engine.entails(c, nxt) == HOLDS
                if nxt == d and stable_at is None:
                    stable_at = i - 1
                d = nxt
            assert stable_at is not None and stable_at <= budget


def test_criterion_8_catamorphism_sanity():
    """ordered/first/last are total and single-valued on every integer list
    of length <= 4 over {0,1}, by brute-force evaluation."""
    with criterion(8, "catamorphism-sanity"):
        problem = _fixture()
        for pred in ("ordered", "first", "last"):
            for n in range(5):
                for xs in itertools.product((0, 1), repeat=n):
                    outs = eval_cata(problem, pred, xs)
                    assert len(outs) == 1, (pred, xs, outs)


@pytest.mark.slow
def test_criterion_9_desk_benchmark(bench):
    """>= 10 problems spanning >= 4 categories, sat and unsat variants per
    category, every expected verdict met end-to-end, under 30 minutes."""
    with criterion(9, "desk-benchmark"):
        report, wall = bench
        tagged = [r for r in report.rows if r.expected]
        assert len(tagged) >= 10
        cats: dict[str, set[str]] = {}
        for r in tagged:
            cats.setdefault(CATEGORY[r.name], set()).add(r.expected)
        full = {c for c, kinds in cats.items() if kinds == {"sat", "unsat"}}
        assert len(full) >= 4, cats
        misses = [r for r in tagged if r.transformed != r.expected]
        assert misses == [], report.to_text()
        assert wall < 1800.0, f"bench wall time {wall:.0f}s"
