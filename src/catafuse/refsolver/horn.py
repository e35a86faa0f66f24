"""Reference CHC solver.

Run as `python -m catafuse.refsolver.horn [-t seconds] file.smt2`; the file
`-` means the script is read from stdin.

Decides satisfiability of Horn clause scripts in the emitted dialect and
prints sat, unsat, or unknown:

  * unsat by bounded bottom-up derivation: constrained facts are saturated
    breadth-first; a query whose premise becomes definitively satisfiable
    yields a refutation, so the verdict is exact. A body atom joins a fact
    through `syntax.mgu`, and the equalities it cannot solve by syntax go to
    the QF core with the constraints. A fact that is a variant of a stored
    one (equal once display-renamed) is dropped. Once a cap has truncated
    something, a clause whose head predicate is full is no longer joined
    (every head it derived would be rejected), and a join state whose
    partial check already came back sat is not checked again;
  * sat by Houdini-style invariant inference: candidate atoms are mined from
    clause constraints, query contracts, and head patterns, then pruned to
    the largest inductive conjunction; if the surviving assignment falsifies
    every query premise it is a genuine model, so the verdict is exact;
  * unknown otherwise.

A time limit (-t) bounds every phase: derivation checks the clock for each
fact row it joins, invariant inference for each candidate it tests, and the
QF core inside each query. It starts once the script is read and parsed, so
a child that waits for its script on stdin spends none of it waiting.

Designed for desk-scale problems; a production solver (z3/SPACER) remains a
drop-in via the driver configuration.
"""

from __future__ import annotations

import sys
import time

from ..syntax import (
    BOOL, FALSE, TRUE, Atom, Clause, FComp, FImp, FNot, FVar, Formula,
    IntConst, NameGen, Subst, Term, Var, conjuncts, display_renaming, eq_of,
    free_vars, mgu, mk_and, mk_not,
)
from . import qfcore
from .smtparse import SmtContext, UnsupportedSmt, parse_sexps

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def read_script(text: str) -> tuple[list[Clause], SmtContext]:
    ctx = SmtContext()
    clauses: list[Clause] = []
    for cmd in parse_sexps(text):
        if not isinstance(cmd, list) or not cmd:
            continue
        op = cmd[0]
        if op == "declare-datatypes":
            ctx.declare_datatypes(cmd[1], cmd[2])
        elif op == "declare-fun":
            ctx.declare_fun(cmd[1], cmd[2], cmd[3])
        elif op == "declare-const":
            ctx.declare_fun(cmd[1], [], cmd[2])
        elif op == "assert":
            clauses.append(ctx.to_clause(cmd[1]))
        elif op in ("set-logic", "set-option", "set-info", "check-sat", "exit"):
            continue
        else:
            raise UnsupportedSmt(f"unsupported command {op}")
    return clauses, ctx


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


# ---------------------------------------------------------------------------
# Bounded bottom-up refutation
# ---------------------------------------------------------------------------

class _Facts:
    def __init__(self, cap_per_pred: int) -> None:
        self.by_pred: dict[str, list[tuple[tuple[Term, ...], Formula]]] = {}
        # each fact's clause under display names: variants share it
        self.seen: set[Clause] = set()
        self.cap = cap_per_pred
        self.saturated = True  # flips when a cap truncates anything

    def add(self, pred: str, args: tuple[Term, ...], c: Formula) -> bool:
        row = self.by_pred.setdefault(pred, [])
        f = Clause(Atom(pred, args), c, ())
        key = display_renaming(f).clause(f)
        if key in self.seen:
            return False
        if len(row) >= self.cap:
            self.saturated = False
            return False
        row.append((args, c))
        self.seen.add(key)
        return True


class _FreshNames(NameGen):
    """Fresh variable names that sort in the order they are made ("r#19" <
    "r#210"). lin orders coefficients, and the LIA core eliminates
    variables, by name, so facts depend on how fresh names compare; a join
    that is skipped makes no names, and with these names it leaves the
    order of every later one, and so every later fact, as it would have
    been."""

    def fresh(self, base: str = "") -> str:
        self.n += 1
        digits = str(self.n)
        return f"{self.prefix}#{len(digits)}{digits}"


def _join(clause: Clause, facts: _Facts, gen: NameGen, budget: qfcore.Budget,
          limit: int) -> list[tuple[tuple[Term, ...] | None, Formula]]:
    """All derivable head instances of clause from current facts."""
    out: list[tuple[tuple[Term, ...] | None, Formula]] = []
    # (substitution, constraint, verdict of the partial check): sat is exact,
    # so only a state whose partial check was not sat is checked again
    state = [(Subst(), clause.constraint, qfcore.UNKNOWN)]
    for atom in clause.body:
        rows = facts.by_pred.get(atom.pred, [])
        nxt = []
        for s, c, _ in state:
            a = s.atom(atom)
            for fargs, fc in rows:
                if _expired(budget.deadline):
                    facts.saturated = False
                    return []
                ren = {v: gen.fresh_var(v.sort) for v in
                       sorted(free_vars(list(fargs)) | free_vars(fc),
                              key=lambda w: w.name)}
                r = Subst(ren)
                u = mgu(a, Atom(atom.pred, tuple(r.term(t) for t in fargs)))
                if u is None:
                    continue  # constructor clash, or a cyclic term
                theta, residue = u
                s2 = s.compose(theta)
                cns = mk_and(theta.formula(c), r.compose(theta).formula(fc),
                             *residue)
                # prune dead partial joins early; unknown survives
                verdict = qfcore.check_sat(
                    cns, qfcore.Budget(20_000, budget.deadline))
                if verdict == qfcore.UNSAT:
                    continue
                nxt.append((s2, cns, verdict))
                if len(nxt) > limit:
                    facts.saturated = False
                    break
            if len(nxt) > limit:
                break
        state = nxt
        if not state:
            return []
    for s, c, verdict in state:
        if verdict != qfcore.SAT:
            verdict = qfcore.check_sat(c, qfcore.Budget(60_000, budget.deadline))
        if verdict == qfcore.UNSAT:
            continue
        if verdict == qfcore.UNKNOWN:
            facts.saturated = False
            continue
        head = None if clause.head is None else tuple(
            s.term(t) for t in clause.head.args)
        out.append((head, c))
    return out


def refute(clauses: list[Clause], deadline: float | None, rounds: int,
           cap: int, joins: int) -> tuple[str, dict]:
    """unsat if a query fires; sat if saturation completes exactly; else
    unknown. Also returns the derived facts (reachable under-approximation)."""
    gen = _FreshNames("r")
    facts = _Facts(cap)
    queries = [c for c in clauses if c.head is None]
    definite = [c for c in clauses if c.head is not None]
    budget = qfcore.Budget(deadline=deadline)
    for _ in range(rounds):
        if _expired(deadline):
            return UNKNOWN, facts.by_pred
        grew = False
        for c in definite:
            # facts.add would reject every head: a variant, or over the cap
            if not facts.saturated and len(facts.by_pred.get(c.head.pred, ())) >= cap:
                continue
            for head, cns in _join(c, facts, gen, budget, joins):
                if facts.add(c.head.pred, head, cns):
                    grew = True
        for q in queries:
            if _join(q, facts, gen, budget, joins):
                return UNSAT, facts.by_pred
        if not grew:
            verdict = SAT if facts.saturated else UNKNOWN
            return verdict, facts.by_pred
    return UNKNOWN, facts.by_pred


# ---------------------------------------------------------------------------
# Houdini-style invariant inference
# ---------------------------------------------------------------------------

def _pos_vars(pred: str, sorts: tuple, cache: dict) -> list[Var]:
    if pred not in cache:
        cache[pred] = [Var(f"{pred}!{i}", s) for i, s in enumerate(sorts)]
    return cache[pred]


def _mine(clauses: list[Clause], preds: dict[str, tuple], pv: dict) -> dict[str, list[Formula]]:
    # each table is an insertion-ordered set (a dict with None values), so
    # a duplicate costs a hash lookup rather than a scan of the list
    cands: dict[str, dict[Formula, None]] = {p: {} for p in preds}
    facts: dict[str, dict[Formula, None]] = {p: {} for p in preds}
    guards: dict[str, dict[Formula, None]] = {p: {} for p in preds}

    def add(tbl: dict[str, dict[Formula, None]], pred: str, f: Formula) -> None:
        if f != TRUE:
            tbl[pred].setdefault(f)

    def posmap(args: tuple[Term, ...], pred: str) -> dict[Var, Var]:
        vs = _pos_vars(pred, preds[pred], pv)
        m: dict[Var, Var] = {}
        for i, t in enumerate(args):
            if isinstance(t, Var) and t not in m:
                m[t] = vs[i]
        return m

    def mapped(f: Formula, m: dict[Var, Var]) -> Formula | None:
        fv = free_vars(f)
        if not fv or not fv <= set(m):
            return None
        return Subst(dict(m)).formula(f)

    def note_fact(pred: str, g: Formula) -> None:
        add(facts, pred, g)
        if isinstance(g, FVar) or (isinstance(g, FNot) and isinstance(g.arg, FVar)):
            add(guards, pred, g)
            add(guards, pred, mk_not(g))

    for c in clauses:
        parts = conjuncts(c.constraint)
        if c.head is not None:
            pred = c.head.pred
            vs = _pos_vars(pred, preds[pred], pv)
            m = posmap(c.head.args, pred)
            for f in parts:
                g = mapped(f, m)
                if g is not None:
                    note_fact(pred, g)
            firstpos: dict[Var, int] = {}
            for i, t in enumerate(c.head.args):
                if isinstance(t, Var):
                    if t in firstpos and preds[pred][i].is_basic:
                        note_fact(pred, eq_of(vs[firstpos[t]], vs[i],
                                              preds[pred][i]))
                    else:
                        firstpos.setdefault(t, i)
                elif isinstance(t, (IntConst,)):
                    note_fact(pred, FComp("=", vs[i], t))
        if c.head is None:
            negated = mk_not(c.constraint)
            for a in c.body:
                m = posmap(a.args, a.pred)
                g = mapped(negated, m)
                if g is not None:
                    add(cands, a.pred, g)  # query contract: keep unguarded
        else:
            for a in c.body:
                m = posmap(a.args, a.pred)
                for f in parts:
                    g = mapped(f, m)
                    if g is not None:
                        note_fact(a.pred, g)

    # every boolean position contributes both literals (case flags like the
    # first/last emptiness booleans rarely show up in every defining clause),
    # plus equalities between same-sorted basic positions (e.g. "the last
    # element of the output equals the inserted element")
    for pred, sorts in preds.items():
        vs = _pos_vars(pred, sorts, pv)
        for i, s in enumerate(sorts):
            if s == BOOL:
                note_fact(pred, FVar(vs[i]))
                note_fact(pred, mk_not(FVar(vs[i])))
        basics = [i for i, s in enumerate(sorts) if s.is_basic]
        for ai, i in enumerate(basics):
            for j in basics[ai + 1:]:
                if sorts[i] == sorts[j]:
                    add(facts, pred, eq_of(vs[i], vs[j], sorts[i]))

    # plain facts, then guard => fact implications (the per-constructor facts
    # of a structural predicate become inductive once guarded by the boolean
    # that distinguishes the constructors, e.g. the first/last "non-empty" flag)
    for pred in preds:
        for f in facts[pred]:
            add(cands, pred, f)
        for g in guards[pred]:
            for f in facts[pred]:
                if f == g or f == mk_not(g) or mk_not(f) == g:
                    continue
                add(cands, pred, FImp(g, f))
    return {pred: list(tbl) for pred, tbl in cands.items()}


def _inst(pred: str, args: tuple[Term, ...], inv: dict[str, list[Formula]],
          pv: dict, preds: dict) -> Formula:
    vs = _pos_vars(pred, preds[pred], pv)
    s = Subst({v: t for v, t in zip(vs, args)})
    return mk_and(*(s.formula(f) for f in inv[pred]))


def _relevant(conjs: list[Formula], seed: set[Var]) -> list[Formula]:
    """Conjuncts var-connected to the seed set (transitively)."""
    picked: list[Formula] = []
    pending = [(f, free_vars(f)) for f in conjs]
    grown = True
    while grown:
        grown = False
        rest = []
        for f, fv in pending:
            if not fv or fv & seed:
                picked.append(f)
                if not fv <= seed:
                    seed |= fv
                    grown = True
            else:
                rest.append((f, fv))
        pending = rest
    return picked


def _preprune(inv: dict[str, list[Formula]], samples: dict, pv: dict,
              preds: dict, deadline: float | None) -> None:
    """Drop candidates falsified by a derived reachable fact: much cheaper
    than discovering the same thing through a full inductiveness check."""
    for pred, cands in inv.items():
        rows = samples.get(pred, [])[:24]
        if not rows:
            continue
        keep: list[Formula] = []
        vs = _pos_vars(pred, preds[pred], pv)
        substs = [(Subst({v: t for v, t in zip(vs, args)}), cns)
                  for args, cns in rows]
        enc = qfcore.Encoding()
        for i, cand in enumerate(cands):
            if _expired(deadline):
                keep.extend(cands[i:])  # out of time: the rest stay untested
                break
            ok = True
            for s, cns in substs:
                q = mk_and(cns, mk_not(s.formula(cand)))
                if qfcore.check_sat(q, qfcore.Budget(30_000, deadline),
                                    enc) == qfcore.SAT:
                    ok = False
                    break
            if ok:
                keep.append(cand)
        inv[pred] = keep


def houdini(clauses: list[Clause], preds: dict[str, tuple],
            deadline: float | None,
            samples: dict | None = None) -> str:
    pv: dict = {}
    inv = _mine(clauses, preds, pv)
    if samples:
        _preprune(inv, samples, pv, preds, deadline)
    definite = [c for c in clauses if c.head is not None]
    queries = [c for c in clauses if c.head is None]

    def body(c: Clause) -> list[Formula]:
        inst: list[Formula] = []
        for a in c.body:
            inst.extend(conjuncts(_inst(a.pred, a.args, inv, pv, preds)))
        return inst

    def check(c: Clause, inst: list[Formula], goal: Formula,
              enc: qfcore.Encoding | None = None) -> str:
        seed = free_vars(c.constraint) | free_vars(goal)
        picked = _relevant(inst, seed)
        q = mk_and(*conjuncts(c.constraint), *picked, mk_not(goal))
        return qfcore.check_sat(q, qfcore.Budget(deadline=deadline), enc)

    changed = True
    while changed:
        changed = False
        for c in definite:
            if not inv[c.head.pred]:
                continue
            vs = _pos_vars(c.head.pred, preds[c.head.pred], pv)
            s = Subst({v: t for v, t in zip(vs, c.head.args)})
            # inv is fixed until the loop ends, so the body and its
            # compiled conjuncts serve every candidate
            inst = body(c)
            enc = qfcore.Encoding()
            keep: list[Formula] = []
            for cand in inv[c.head.pred]:
                if _expired(deadline):
                    return UNKNOWN
                if check(c, inst, s.formula(cand), enc) == qfcore.UNSAT:
                    keep.append(cand)
                else:
                    changed = True
            inv[c.head.pred] = keep
    for q in queries:
        if check(q, body(q), FALSE) != qfcore.UNSAT:
            return UNKNOWN
    return SAT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def solve_clauses(clauses: list[Clause], preds: dict[str, tuple],
                  timeout: float | None = None) -> str:
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout

    def slice_deadline(frac: float) -> float | None:
        if deadline is None:
            return None
        return min(deadline, time.monotonic() + frac * (deadline - t0))

    r, samples = refute(clauses, slice_deadline(0.2), rounds=4, cap=40, joins=250)
    if r in (SAT, UNSAT):
        return r
    r = houdini(clauses, preds, slice_deadline(0.75), samples)
    if r == SAT:
        return SAT
    r, _ = refute(clauses, deadline, rounds=9, cap=220, joins=1600)
    if r in (SAT, UNSAT):
        return r
    return UNKNOWN


def solve_script(text: str, timeout: float | None = None) -> str:
    try:
        clauses, ctx = read_script(text)
    except UnsupportedSmt as e:
        print(f'(error "{e}")', file=sys.stderr)
        return UNKNOWN
    return solve_clauses(clauses, ctx.preds, timeout)


def _usage() -> int:
    print("usage: horn [-t seconds] file.smt2 (- for stdin)", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    args = list(argv)
    timeout = None
    if "-t" in args:
        i = args.index("-t")
        try:
            timeout = float(args[i + 1])
        except (IndexError, ValueError):
            return _usage()
        del args[i:i + 2]
    if len(args) != 1:
        return _usage()
    if args[0] == "-":
        text = sys.stdin.read()
    else:
        with open(args[0], encoding="utf-8") as fh:
            text = fh.read()
    print(solve_script(text, timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
