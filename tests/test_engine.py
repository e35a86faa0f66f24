import itertools
import os
import random
import re
import string
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from catafuse import engine as engine_mod
from catafuse.engine import (
    FAILS, HOLDS, SAT, UNKNOWN, UNSAT, Oracle, OracleError,
    is_atomic_conjunct, query_text, simplify,
)
from catafuse.refsolver import qfcore
from catafuse.syntax import (
    BOOL, INT, FComp, FEq, FIff, FImp, FNot, FVar, IntConst, TRUE, Var,
    as_lin, conjuncts, eval_formula, free_vars, lin, lin_sub, list_sort,
    mk_and, mk_not, mk_or, tree_sort,
)
from catafuse.transform import transform_problem

X = Var("X", INT)
Y = Var("Y", INT)
B1 = Var("B1", BOOL)
B2 = Var("B2", BOOL)
B3 = Var("B3", BOOL)


def geq(a, b):
    return FComp(">=", a, b)


def leq(a, b):
    return FComp("=<", a, b)


# ---------------------------------------------------------------------------
# satisfiability / entailment, with a truth-table oracle for the bool fragment
# ---------------------------------------------------------------------------

def test_sat_examples(engine):
    assert engine.is_satisfiable(mk_and(geq(X, IntConst(1)),
                                        leq(X, IntConst(0)))) == UNSAT
    assert engine.is_satisfiable(mk_and(FVar(B1), mk_not(FVar(B1)))) == UNSAT
    assert engine.is_satisfiable(
        mk_and(FImp(FVar(B1), FVar(B2)), FVar(B1), mk_not(FVar(B2)))) == UNSAT


def test_entails_examples(engine):
    assert engine.entails(geq(X, IntConst(1)), geq(X, IntConst(0))) == HOLDS
    assert engine.entails(TRUE, TRUE) == HOLDS
    assert engine.entails(mk_and(FVar(B1), FVar(B2)),
                          FImp(FVar(B1), FVar(B2))) == HOLDS
    assert engine.entails(geq(X, IntConst(0)), geq(X, IntConst(1))) == FAILS


def _random_bool_formula(rng, depth):
    if depth == 0:
        return FVar(rng.choice([B1, B2, B3]))
    k = rng.random()
    a = _random_bool_formula(rng, depth - 1)
    b = _random_bool_formula(rng, depth - 1)
    if k < 0.3:
        return mk_and(a, b)
    if k < 0.6:
        return mk_or(a, b)
    if k < 0.75:
        return FImp(a, b)
    if k < 0.9:
        return mk_not(a)
    return FIff(a, b)


def test_entails_matches_truth_tables(engine):
    rng = random.Random(11)
    vs = [B1, B2, B3]
    for _ in range(60):
        c = _random_bool_formula(rng, 3)
        d = _random_bool_formula(rng, 3)
        want = all(
            (not eval_formula(c, dict(zip(vs, bits)))) or
            eval_formula(d, dict(zip(vs, bits)))
            for bits in itertools.product([False, True], repeat=3))
        got = engine.entails(c, d)
        assert got == (HOLDS if want else FAILS), (c, d)


def test_entails_reflexive_transitive(engine):
    rng = random.Random(5)
    fs = [_random_bool_formula(rng, 2) for _ in range(10)]
    for f in fs:
        assert engine.entails(f, f) == HOLDS
    for a, b, c in itertools.islice(itertools.permutations(fs, 3), 30):
        if engine.entails(a, b) == HOLDS and engine.entails(b, c) == HOLDS:
            assert engine.entails(a, c) == HOLDS


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_exact_elimination(engine):
    c = mk_and(geq(X, IntConst(1)), FComp("=", Y, lin({X: 1}, 1)))
    out = engine.project(c, {Y})
    assert free_vars(out) <= {Y}
    assert engine.entails(c, out) == HOLDS
    assert engine.equivalent(out, geq(Y, IntConst(2)))


def test_project_true_and_identity(engine):
    assert engine.project(TRUE, {X}) == TRUE
    c = mk_and(geq(X, IntConst(1)), leq(Y, X))
    assert engine.project(c, {X, Y}) == simplify(c)


def test_project_postconditions_random(engine):
    rng = random.Random(23)
    vs = [Var(n, INT) for n in "PQRS"]
    for _ in range(40):
        atoms = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(vs, 2)
            atoms.append(FComp(rng.choice(["=<", "=", ">="]),
                               lin({a: 1, b: -1}, rng.randint(-2, 2)),
                               IntConst(rng.randint(-3, 3))))
        c = mk_and(*atoms)
        keep = set(rng.sample(vs, rng.randint(0, 3)))
        out = engine.project(c, keep)
        assert free_vars(out) <= keep
        assert engine.entails(c, out) == HOLDS


# The projection before it moved onto lia.eliminate: unit-equality
# substitution and Fourier-Motzkin resolution without tightening or dedup.

def _ref_fm_project(atomic, keep):
    lias = []
    others = []
    for p in atomic:
        if isinstance(p, FComp):
            try:
                d = lin_sub(p.lhs, p.rhs)
                cs, k = as_lin(d)
            except TypeError:
                others.append(p)
                continue
            if p.rel == "=":
                lias.append((dict(cs), k, "="))
            elif p.rel == "=<":
                lias.append((dict(cs), k, "<="))
            elif p.rel == "<":
                lias.append((dict(cs), k + 1, "<="))
            elif p.rel == ">=":
                lias.append(({v: -a for v, a in cs.items()}, -k, "<="))
            else:  # >
                lias.append(({v: -a for v, a in cs.items()}, -k + 1, "<="))
        else:
            others.append(p)
    kept_others = [p for p in others if free_vars(p) <= keep]
    rows = [(dict(cs), k, rel == "=") for cs, k, rel in lias]
    drop = sorted({v for cs, _, _ in rows for v in cs} - keep,
                  key=lambda v: v.name)
    for x in drop:
        eqs = [(cs, k) for cs, k, is_eq in rows if is_eq and cs.get(x, 0) != 0]
        solved = False
        for cs, k in eqs:
            a = cs[x]
            if abs(a) == 1:
                sub_c = {v: -b * a for v, b in cs.items() if v != x}
                sub_k = -k * a
                nxt = []
                for cs2, k2, is_eq2 in rows:
                    if (cs2, k2) == (cs, k) and is_eq2:
                        continue
                    b = cs2.get(x, 0)
                    if b == 0:
                        nxt.append((cs2, k2, is_eq2))
                        continue
                    nc = {v: a2 for v, a2 in cs2.items() if v != x}
                    for v, a2 in sub_c.items():
                        nc[v] = nc.get(v, 0) + b * a2
                        if nc[v] == 0:
                            del nc[v]
                    nxt.append((nc, k2 + b * sub_k, is_eq2))
                rows = nxt
                solved = True
                break
        if solved:
            continue
        ineqs = []
        for cs, k, is_eq in rows:
            if cs.get(x, 0) == 0:
                ineqs.append((cs, k, is_eq))
                continue
            if is_eq:
                ineqs.append((dict(cs), k, False))
                ineqs.append(({v: -a for v, a in cs.items()}, -k, False))
            else:
                ineqs.append((cs, k, False))
        lows = [(cs, k) for cs, k, _ in ineqs if cs.get(x, 0) < 0]
        highs = [(cs, k) for cs, k, _ in ineqs if cs.get(x, 0) > 0]
        rows = [(cs, k, is_eq) for cs, k, is_eq in ineqs if cs.get(x, 0) == 0]
        for cl, kl in lows:
            al = -cl[x]
            for ch, kh in highs:
                ah = ch[x]
                comb = {}
                for v, a in cl.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + ah * a
                for v, a in ch.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + al * a
                comb = {v: a for v, a in comb.items() if a != 0}
                rows.append((comb, ah * kl + al * kh, False))
        if len(rows) > 600:
            return mk_and(*kept_others)
    out = list(kept_others)
    for cs, k, is_eq in rows:
        if not cs:
            continue
        out.append(FComp("=" if is_eq else "=<", lin(cs, k), IntConst(0)))
    return simplify(mk_and(*out))


def _implication(a, b):
    """qfcore's verdict on a & ~b: unsat proves a => b, and sat refutes it
    (the QF core never lies); a non-unit elimination can leave it unknown."""
    return qfcore.check_sat(mk_and(a, mk_not(b)))


def test_fm_project_matches_reference_random():
    """On random conjunctions of integer rows with coefficients ±1..3, all
    five relations and boolean conjuncts: the projection mentions only kept
    variables, is implied by its input, and implies the reference's."""
    rng = random.Random(29)
    ints = [Var(n, INT) for n in "PQRST"]
    bools = [B1, B2]
    verdicts = []
    stronger = 0
    for _ in range(1000):
        atoms = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.15:
                b = FVar(rng.choice(bools))
                atoms.append(b if rng.random() < 0.5 else mk_not(b))
                continue
            cs = {v: rng.choice((-3, -2, -1, 1, 2, 3))
                  for v in rng.sample(ints, rng.randint(1, 3))}
            atoms.append(FComp(rng.choice(["=", "<", "=<", ">=", ">"]),
                               lin(cs, rng.randint(-4, 4)),
                               IntConst(rng.randint(-3, 3))))
        c = mk_and(*atoms)
        atomic = [p for p in conjuncts(c) if is_atomic_conjunct(p)]
        keep = set(rng.sample(ints + bools, rng.randint(0, 5)))
        new = engine_mod._fm_project(atomic, keep)
        old = _ref_fm_project(atomic, keep)
        assert free_vars(new) <= keep, (c, keep, new)
        for a, b in ((c, new), (new, old)):
            verdicts.append(_implication(a, b))
            assert verdicts[-1] != qfcore.SAT, (a, b, keep)
        stronger += _implication(old, new) == qfcore.SAT
    assert verdicts.count(qfcore.UNKNOWN) <= len(verdicts) // 100
    assert stronger > 0  # tightening shows


def test_project_boolean_structure_falls_back(engine):
    c = mk_or(geq(X, IntConst(3)), leq(Y, IntConst(0)))
    out = engine.project(c, {Y})
    assert free_vars(out) <= {Y}
    assert engine.entails(c, out) == HOLDS


# ---------------------------------------------------------------------------
# generalization (widening)
# ---------------------------------------------------------------------------

def test_generalize_keeps_entailed_conjuncts(engine):
    d = mk_and(geq(X, IntConst(0)), leq(X, IntConst(5)))
    c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(9)))
    assert engine.generalize(d, c) == geq(X, IntConst(0))


def test_generalize_degenerate(engine):
    c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(9)))
    assert engine.equivalent(engine.generalize(c, c), c)
    assert engine.generalize(TRUE, c) == TRUE


def test_generalize_nondecomposable_widens_to_true(engine):
    d = mk_or(geq(X, IntConst(0)), FVar(B1))
    assert engine.generalize(d, TRUE) == TRUE


def test_generalize_postconditions(engine):
    rng = random.Random(7)
    for _ in range(25):
        d = mk_and(*(FComp("=<", lin({X: 1}, 0), IntConst(rng.randint(0, 9)))
                     for _ in range(rng.randint(1, 4))),
                   geq(X, IntConst(-rng.randint(0, 4))))
        c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(rng.randint(0, 9))))
        a = engine.generalize(d, c)
        assert engine.entails(d, a) == HOLDS
        assert engine.entails(c, a) == HOLDS


def test_widening_chain_stabilizes(engine):
    # the subset-chain argument: conjunct sets only shrink
    rng = random.Random(3)
    vs = [Var(n, INT) for n in "UVW"]
    for _ in range(20):
        base = [FComp("=<", lin({v: 1}, 0), IntConst(rng.randint(0, 6)))
                for v in vs for _ in range(2)]
        d = mk_and(*base[: rng.randint(2, 6)])
        start = set(conjuncts(d))
        steps = 0
        while True:
            weaker = mk_and(*(f for f in conjuncts(d) if rng.random() < 0.7))
            nxt = engine.generalize(d, weaker)
            steps += 1
            assert set(conjuncts(nxt)) <= set(conjuncts(d))
            if nxt == d or steps > len(start) + 1:
                break
            d = nxt
        assert steps <= len(start) + 1


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_simplify_units():
    assert simplify(mk_and(TRUE, FVar(B1))) == FVar(B1)
    assert simplify(FNot(FNot(FVar(B1)))) == FVar(B1)


def test_simplify_equivalent_on_random_formulas(engine):
    rng = random.Random(31)
    for _ in range(100):
        f = _random_bool_formula(rng, 3)
        g = simplify(f)
        assert engine.entails(f, g) == HOLDS
        assert engine.entails(g, f) == HOLDS


# ---------------------------------------------------------------------------
# oracle process failures
# ---------------------------------------------------------------------------


def test_oracle_failure_names_exit_status_and_stderr():
    oracle = Oracle([sys.executable, "-c", "import sys; sys.exit('boom')"])
    try:
        with pytest.raises(OracleError) as info:
            oracle.check(query_text(TRUE))
    finally:
        oracle.close()
    assert "exit status 1" in str(info.value)
    assert "boom" in str(info.value)


def test_oracle_failure_report_survives_spares():
    # the second and third starts take and refill spares of a dying command
    cmd = [sys.executable, "-c", "import sys; sys.exit('boom')", "spares"]
    for _ in range(3):
        oracle = Oracle(cmd)
        try:
            with pytest.raises(OracleError) as info:
                oracle.check(query_text(TRUE))
        finally:
            oracle.close()
        assert "exit status 1" in str(info.value)
        assert "boom" in str(info.value)


# a stand-in oracle that starts fast and answers sat to every check-sat
FAKE_ORACLE = """
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(exit"):
        break
"""


def _fake_cmd(tag: str) -> list[str]:
    """The stand-in's command; `tag` gives each test its own spare."""
    return [sys.executable, "-S", "-c", FAKE_ORACLE, tag]


def test_oracle_error_reply_does_not_answer_the_next_query(tmp_path):
    # the first check-sat this command ever sees is answered by an error and
    # then `unsat`; later ones by `sat`
    marker = tmp_path / "answered"
    code = """
import os, sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        if os.path.exists(sys.argv[1]):
            print("sat", flush=True)
        else:
            open(sys.argv[1], "w").close()
            print('(error "x")', flush=True)
            print("unsat", flush=True)
"""
    oracle = Oracle([sys.executable, "-S", "-c", code, str(marker)])
    try:
        assert oracle.check(query_text(TRUE)) == UNKNOWN
        assert oracle.check(query_text(TRUE)) == SAT
    finally:
        oracle.close()


def _waiting_pids(key: tuple[str, ...]) -> list[int]:
    return [child.proc.pid for child in engine_mod._idle.get(key, [])]


def test_oracle_spare_serves_the_next_start(request):
    cmd = _fake_cmd(request.node.name)
    key = tuple(cmd)
    oracles = []
    try:
        for _ in range(2):
            oracles.append(Oracle(cmd))
            assert oracles[-1].check(query_text(TRUE)) == SAT
            if len(oracles) == 1:
                # a single start in a process starts no child ahead
                assert _waiting_pids(key) == []
        [spare] = _waiting_pids(key)
        oracles.append(Oracle(cmd))
        assert oracles[-1].check(query_text(TRUE)) == SAT
        assert oracles[-1].proc.pid == spare
        pids = [o.proc.pid for o in oracles] + _waiting_pids(key)
        assert len(pids) == 4 and len(set(pids)) == 4
    finally:
        for o in oracles:
            proc = o.proc
            o.close()
            # close ends the Oracle's own child, spare-served or not
            assert proc.wait(timeout=5) is not None


def test_oracle_dead_spare_is_replaced(request):
    cmd = _fake_cmd(request.node.name)
    key = tuple(cmd)
    first, second = Oracle(cmd), Oracle(cmd)
    third = Oracle(cmd)
    try:
        first.check(query_text(TRUE))
        second.check(query_text(TRUE))
        [dead] = engine_mod._idle[key]
        dead.proc.kill()
        dead.proc.wait()
        assert third.check(query_text(TRUE)) == SAT
        assert third.proc.pid != dead.proc.pid
        assert dead.stderr.closed
        [fresh] = engine_mod._idle[key]
        assert fresh.proc.poll() is None
    finally:
        for o in (first, second, third):
            o.close()


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_oracle_spare_does_not_outlive_its_process():
    # the stand-in never reads stdin, so only the exit hook can end the spare
    code = """
import sys
from catafuse import engine
cmd = [sys.executable, "-S", "-c", "import time; time.sleep(60)"]
for _ in range(3):
    engine.Oracle(cmd)._start()
[spare] = engine._idle[tuple(cmd)]
print(spare.proc.pid, flush=True)
"""
    src = Path(engine_mod.__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pid = int(proc.stdout)
    try:
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, 9)


def test_oracle_spares_across_threads(request):
    # run_bench's jobs > 1: each worker starts its Oracles one after another
    cmd = [sys.executable, "-m", "catafuse.refsolver.oracle", request.node.name]
    sat = geq(X, IntConst(1))
    unsat = mk_and(sat, leq(X, IntConst(0)))
    verdicts: list[tuple[str, str]] = []
    errors: list[BaseException] = []

    def work():
        try:
            for _ in range(3):
                oracle = Oracle(cmd)
                try:
                    verdicts.append((oracle.check(query_text(sat)),
                                     oracle.check(query_text(unsat))))
                finally:
                    oracle.close()
        except Exception as e:  # noqa: BLE001 -- reported below
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(3)]
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
    assert verdicts == [(SAT, UNSAT)] * 9


def test_oracle_declarations_follow_first_occurrence_past_52_variables(tmp_path):
    # a stand-in that records what it is sent; display names run A..Z,
    # A1..Z1, A2..: sorting them by (length, name) would put A2 before B1
    code = """
import sys
with open(sys.argv[1], "w") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        if line.startswith("(check-sat"):
            print("sat", flush=True)
"""
    sent = tmp_path / "sent"
    vs = [Var(f"V{i:02d}", INT) for i in range(60)]
    oracle = Oracle([sys.executable, "-S", "-c", code, str(sent)])
    try:
        assert oracle.check(query_text(
            mk_and(*(geq(v, IntConst(0)) for v in vs)))) == SAT
    finally:
        oracle.close()
    declared = re.findall(r"\(declare-const (\w+) Int\)", sent.read_text())
    assert declared == [f"{ch}{n or ''}" for n in range(3)
                        for ch in string.ascii_uppercase][:60]


# ---------------------------------------------------------------------------
# the verdict memo, keyed up to renaming
# ---------------------------------------------------------------------------

class CountingOracle:
    """Answers every query with `verdict` and records what it was sent."""

    def __init__(self, verdict: str) -> None:
        self.verdict = verdict
        self.sent: list[str] = []

    def check(self, query: str) -> str:
        self.sent.append(query)
        return self.verdict

    def close(self) -> None:
        pass


def test_memo_answers_a_renamed_query_once():
    oracle = CountingOracle(SAT)
    eng = engine_mod.ConstraintEngine(oracle)
    a, b = Var("A#7", INT), Var("Z", INT)
    assert eng.is_satisfiable(geq(X, Y)) == SAT
    assert eng.is_satisfiable(geq(a, b)) == SAT
    # the memo key is the text the oracle is sent, in which both queries
    # read alike under their display names
    text = "(declare-const A Int)\n(declare-const B Int)\n(assert (>= A B))"
    assert oracle.sent == [text]
    assert query_text(geq(X, Y)) == text
    assert query_text(geq(a, b)) == text


def test_memo_tells_sorts_apart():
    oracle = CountingOracle(SAT)
    eng = engine_mod.ConstraintEngine(oracle)
    for s in (list_sort(INT), tree_sort(INT)):
        assert eng.is_satisfiable(FEq(Var("X", s), Var("Y", s), s)) == SAT
    assert len(oracle.sent) == 2


def test_memo_asks_again_after_unknown():
    oracle = CountingOracle(UNKNOWN)
    eng = engine_mod.ConstraintEngine(oracle)
    assert eng.is_satisfiable(geq(X, Y)) == UNKNOWN
    assert eng.entails(geq(X, Y), geq(X, IntConst(0))) == UNKNOWN
    assert eng.is_satisfiable(geq(X, Y)) == UNKNOWN
    assert eng.entails(geq(X, Y), geq(X, IntConst(0))) == UNKNOWN
    assert len(oracle.sent) == 4


def test_entailment_shares_the_satisfiability_entry():
    oracle = CountingOracle(UNSAT)
    eng = engine_mod.ConstraintEngine(oracle)
    c, d = geq(X, IntConst(1)), geq(X, IntConst(0))
    assert eng.is_satisfiable(mk_and(c, mk_not(d))) == UNSAT
    assert eng.entails(c, d) == HOLDS
    assert len(oracle.sent) == 1


def test_transform_checks_each_query_once_up_to_renaming(insertion_sort):
    oracle = Oracle()
    sent = []
    check = oracle.check

    def counting(query):
        sent.append(query)
        return check(query)

    oracle.check = counting
    eng = engine_mod.ConstraintEngine(oracle)
    try:
        transform_problem(insertion_sort, eng)
    finally:
        eng.close()
    assert sent and len(sent) == len(set(sent))
