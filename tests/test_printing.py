"""The printers name variables through `display_names` instead of printing a
renamed copy. Each test keeps the route that renamed by copying, rebuild
then print, as its reference: the human printer, the SMT-LIB clause
assertions and the oracle's query text must read exactly as that route
reads, on seeded random clauses and queries and on everything a corpus
transform prints, and the oracle's child must get byte for byte the input
it got from it."""

import random
from pathlib import Path

import pytest

from catafuse import engine as engine_mod
from catafuse.engine import SAT, UNKNOWN, ConstraintEngine, Oracle, bundled_cmd
from catafuse.parser import parse_problem
from catafuse.smtlib import (clause_assert, emit_smtlib, mangle_sort,
                             smt_atom, smt_formula)
from catafuse.syntax import (
    BOOL, INT, Atom, Clause, Ctor, FComp, FEq, FIff, FImp, FIte, FTrue, FVar,
    IntConst, Subst, TermIte, Var, conjuncts, display_renaming, lin,
    list_sort, mk_and, mk_not, mk_or, pretty_clause, tree_sort,
)
from catafuse.transform import (DerivationLog, transform_problem,
                                transformed_problem)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ORACLE = "catafuse.refsolver.oracle"
LI, TI = list_sort(INT), tree_sort(INT)
NIL, LEAF = Ctor(LI, "[]", ()), Ctor(TI, "leaf", ())


# ---------------------------------------------------------------------------
# the reference route: rename by copying, then print with no name map
# ---------------------------------------------------------------------------

def ref_pretty_clause(c):
    c = display_renaming(c).clause(c)
    head = "false" if c.head is None else str(c.head)
    parts = [str(f) for f in conjuncts(c.constraint)]
    parts += [str(a) for a in c.body]
    return f"{head} :- {', '.join(parts)}." if parts else f"{head}."


def ref_clause_assert(c):
    ren = display_renaming(c)
    c = ren.clause(c)
    head = "false" if c.head is None else smt_atom(c.head)
    parts = [] if isinstance(c.constraint, FTrue) else [smt_formula(c.constraint)]
    parts += [smt_atom(a) for a in c.body]
    if not parts:
        impl = head
    elif len(parts) == 1:
        impl = f"(=> {parts[0]} {head})"
    else:
        impl = f"(=> (and {' '.join(parts)}) {head})"
    if not ren:
        return f"(assert {impl})"
    binders = " ".join(f"({v.name} {mangle_sort(v.sort)})"
                       for v in ren.mapping.values())
    return f"(assert (forall ({binders}) {impl}))"


def ref_query_lines(q):
    """The lines that posed q to the oracle."""
    ren = display_renaming(q)
    return [*(f"(declare-const {v.name} {mangle_sort(v.sort)})"
              for v in ren.mapping.values()),
            f"(assert {smt_formula(ren.formula(q))})"]


def ref_query(self, formula):
    """`Oracle._query` as it was: one line per send. With `ref_check` the
    query is renamed twice, which is not the identity once a sum holds
    both "Z" and "A1"; no corpus query has such a sum."""
    send = self.child.send
    send("(push 1)")
    send(f"(set-option :timeout {engine_mod.TIMEOUT_MS})")
    for line in ref_query_lines(formula):
        send(line)
    send("(check-sat)")
    verdict = self.child.read_verdict(
        engine_mod.time.monotonic() + engine_mod.TIMEOUT_MS / 1000 + 10)
    if verdict is None:
        self._kill()
        return UNKNOWN
    send("(pop 1)")
    return verdict


def ref_check(self, q):
    """`ConstraintEngine._check` as it was: keyed by the renamed query."""
    q = display_renaming(q).formula(q)
    hit = self._sat_cache.get(q)
    if hit is not None:
        return hit
    v = self.oracle.check(q)
    if v != UNKNOWN:
        self._sat_cache[q] = v
    return v


# ---------------------------------------------------------------------------
# seeded random clauses and queries, built as the program builds them
# ---------------------------------------------------------------------------

class Gen:
    """Random terms, formulas and clauses over `nvars` integer variables and
    up to three of each other sort (none at all: ground). Formulas come
    from the smart constructors and linear terms from `lin`, as every
    formula of the program does. The integer variables are named so that
    name order and first-occurrence order disagree."""

    def __init__(self, r, nvars):
        self.r = r
        names = [f"V{k}x" for k in range(nvars)]
        r.shuffle(names)
        self.ints = [Var(n, INT) for n in names]
        self.bools = [Var(f"P{k}", BOOL) for k in range(min(nvars, 3))]
        self.lists = [Var(f"Xs{k}", LI) for k in range(min(nvars, 3))]
        self.trees = [Var(f"T{k}", TI) for k in range(min(nvars, 3))]

    def int_term(self, depth):
        r = self.r
        k = r.randrange(5 if depth else 3)
        if k == 0 and self.ints:
            return r.choice(self.ints)
        if k == 2 and self.ints:
            vs = r.sample(self.ints, min(len(self.ints),
                                         r.choice([1, 2, 3, 8, 70])))
            return lin({v: r.choice([-3, -2, -1, 1, 2, 5]) for v in vs},
                       r.randint(-3, 3))
        if k == 3:
            return TermIte(self.formula(depth - 1), self.int_term(depth - 1),
                           self.int_term(depth - 1))
        if k == 4 and self.ints:
            return lin({r.choice(self.ints): 1}, r.randint(-4, 4))
        return IntConst(r.randint(-5, 5))

    def list_term(self, depth):
        if depth == 0 or self.r.random() < 0.3:
            return self.r.choice(self.lists + [NIL])
        return Ctor(LI, "cons", (self.int_term(depth - 1),
                                 self.list_term(depth - 1)))

    def tree_term(self, depth):
        if depth == 0 or self.r.random() < 0.3:
            return self.r.choice(self.trees + [LEAF])
        return Ctor(TI, "node", (self.tree_term(depth - 1),
                                 self.int_term(depth - 1),
                                 self.tree_term(depth - 1)))

    def bool_formula(self):
        if self.bools and self.r.random() < 0.8:
            return FVar(self.r.choice(self.bools))
        return self.formula(0)

    def formula(self, depth):
        r = self.r
        k = r.randrange(11 if depth > 0 else 4)
        if k == 0:
            return self.bool_formula()
        if k == 1:
            return FEq(self.list_term(depth), self.list_term(depth), LI)
        if k == 2:
            return FEq(self.tree_term(depth), self.tree_term(depth), TI)
        if k == 3:
            return FComp(r.choice(["=", "<", "=<", ">=", ">"]),
                         self.int_term(depth), self.int_term(depth))
        sub = [self.formula(depth - 1) for _ in range(r.randint(1, 4))]
        if k in (4, 5, 6):
            return mk_and(*sub)
        if k == 7:
            return mk_or(*sub)
        if k == 8:
            return mk_not(sub[0])
        if k == 9:
            return r.choice([FImp, FIff])(self.formula(depth - 1),
                                          self.formula(depth - 1))
        return FIte(self.formula(depth - 1), self.formula(depth - 1),
                    self.formula(depth - 1))

    def atom(self):
        r = self.r
        if r.random() < 0.1:
            return Atom("p0", ())
        args = (self.list_term(2), self.int_term(2), self.tree_term(2))
        return Atom(r.choice("pq"), args[:r.randint(1, 3)])

    def constraint(self):
        return mk_and(*(self.formula(3) for _ in range(self.r.randint(0, 4))))

    def clause(self):
        r = self.r
        head = None if r.random() < 0.3 else self.atom()
        body = tuple(self.atom() for _ in range(r.randrange(4)))
        return Clause(head, self.constraint(), body)


def _gens(seed, count):
    r = random.Random(seed)
    for i in range(count):
        # every fifth ground; otherwise up to 70 integer variables, past the
        # 52 names before "A2", so that "A1" and "B" meet in a sum
        yield Gen(r, 0 if i % 5 == 0 else r.choice([2, 5, 30, 60, 70]))


def test_printers_match_rebuild_then_print_on_random_clauses():
    seen_big = seen_ground = 0
    for g in _gens(20261020, 400):
        c = g.clause()
        assert pretty_clause(c) == ref_pretty_clause(c)
        assert clause_assert(c) == ref_clause_assert(c)
        names = len(display_renaming(c).mapping)
        seen_big += names > 52
        seen_ground += names == 0
    assert seen_big > 20 and seen_ground > 20


def test_query_text_matches_rebuild_then_print_on_random_queries():
    for g in _gens(17, 400):
        q = engine_mod.simplify(g.constraint())
        assert engine_mod.query_text(q) == "\n".join(ref_query_lines(q))


def test_a_long_sum_prints_in_display_name_order():
    vs = [Var(f"N{k:02d}", INT) for k in range(60)]
    # first occurrence order: N59, N58, ..., so N59 is A, N33 is A1 and
    # N00 is H2
    c = Clause(Atom("p", tuple(reversed(vs))),
               FComp("=", lin({vs[33]: 2, vs[58]: -1, vs[0]: 1}, -4),
                     IntConst(0)), ())
    assert pretty_clause(c) == ref_pretty_clause(c)
    assert "2*A1-B+H2-4=0" in pretty_clause(c)
    assert clause_assert(c) == ref_clause_assert(c)


# ---------------------------------------------------------------------------
# every clause and query of a corpus transform
# ---------------------------------------------------------------------------

def _transform(path):
    """Transform one corpus problem with the bundled oracle; return the
    problem, the result, the arguments of each `DerivationLog.add` call
    with the record it made, the queries of `ConstraintEngine._check` and
    the oracle's checks."""
    problem = parse_problem(path.read_text(encoding="utf-8"))
    logged, queries, checks = [], [], []
    add, check, oracle_check = (DerivationLog.add,
                                ConstraintEngine._check, Oracle.check)

    def logging_add(self, rule, detail, inputs=None, outputs=None):
        add(self, rule, detail, inputs, outputs)
        logged.append((self.records[-1], (rule, detail, inputs, outputs)))

    def checking(self, q):
        queries.append(q)
        return check(self, q)

    def counting(self, formula):
        checks.append(formula)
        return oracle_check(self, formula)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DerivationLog, "add", logging_add)
        mp.setattr(ConstraintEngine, "_check", checking)
        mp.setattr(Oracle, "check", counting)
        engine = ConstraintEngine(Oracle(bundled_cmd(ORACLE)))
        try:
            result = transform_problem(problem, engine)
        finally:
            engine.close()
    return problem, result, logged, queries, checks


def _logged_clauses(logged):
    for _, (_, _, inputs, outputs) in logged:
        yield from inputs or []
        yield from outputs or []


@pytest.fixture(scope="module")
def corpus_runs():
    return {p.stem: _transform(p) for p in sorted(CORPUS.glob("*.chc"))}


def test_printers_match_rebuild_then_print_on_the_corpus(corpus_runs):
    printed = 0
    for problem, result, logged, queries, _ in corpus_runs.values():
        tp = transformed_problem(problem, result)
        for c in [*_logged_clauses(logged), *tp.all_clauses(),
                  *problem.all_clauses()]:
            assert pretty_clause(c) == ref_pretty_clause(c)
            assert clause_assert(c) == ref_clause_assert(c)
            printed += 1
        for q in queries:
            assert engine_mod.query_text(q) == "\n".join(ref_query_lines(q))
    assert printed > 1000


def _no_rebuild(*args):
    raise AssertionError("a printer rebuilt a renamed copy")


def test_printing_builds_no_renamed_copy(corpus_runs):
    problem, result, logged, queries, checks = corpus_runs["insertion_sort"]
    tp = transformed_problem(problem, result)
    want_chc = [ref_pretty_clause(c) for c in tp.queries + tp.program]
    want_smt = emit_smtlib(tp)

    class CountingOracle:
        def __init__(self):
            self.sent = []

        def check(self, formula):
            self.sent.append(formula)
            return SAT

        def close(self):
            pass

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subst, "clause", _no_rebuild)
        mp.setattr(Subst, "formula", _no_rebuild)
        # the records in log order (the stable round's are logged twice)
        calls = {id(record): args for record, args in logged}
        log = DerivationLog()
        for record in result.log.records:
            log.add(*calls[id(record)])
        assert log.to_text() == result.log.to_text()
        assert log.to_json() == result.log.to_json()
        assert [pretty_clause(c) for c in tp.queries + tp.program] == want_chc
        assert emit_smtlib(tp) == want_smt
        oracle = CountingOracle()
        engine = ConstraintEngine(oracle)
        for q in queries:
            engine._check(q)
    # the memo asks the oracle once per query that the transform's memo
    # could not answer
    assert queries and len(oracle.sent) == len(checks)


def test_the_oracle_child_gets_the_same_input():
    """Over a transform of every corpus problem, the bytes written to the
    oracle's children equal those of the rebuild-then-print route, and the
    oracle is asked as often."""
    streams = {}
    for route in ("new", "ref"):
        sent = []
        send = engine_mod.Child.send

        def recording(self, text):
            sent.append(text + "\n")
            return send(self, text)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod.Child, "send", recording)
            if route == "ref":
                mp.setattr(Oracle, "_query", ref_query)
                mp.setattr(ConstraintEngine, "_check", ref_check)
            checks = sum(len(_transform(p)[4])
                         for p in sorted(CORPUS.glob("*.chc")))
        streams[route] = "".join(sent)
        assert checks == 300, route
    assert streams["new"] == streams["ref"]
    assert streams["new"].count("(check-sat)") >= 300
