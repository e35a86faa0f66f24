"""Reference CHC solver.

Run as `python -m catafuse.refsolver.horn [-t seconds] file.smt2`, which
prints one verdict for the file, or with the file `-` as an interactive
SMT-LIB session on stdin. The session answers each `(check-sat)` for the
commands since the last `(reset)` (or since the start) and exits on `(exit)`
or at the end of its input. Piping one script into it therefore prints that
script's verdict; input that never asks `(check-sat)` is answered once at
its end, as a file is. Both read their commands, push and pop included,
through `smtparse.Session`. A command that is malformed, does not parse or
is outside the emitted dialect makes a file unknown, and in the session
every `(check-sat)` up to the next `(reset)`, with the error on stderr.
The limit, a finite positive number of seconds, is each solve's own.

Decides satisfiability of Horn clause scripts in the emitted dialect and
prints sat, unsat, or unknown:

  * unsat by bounded bottom-up derivation: constrained facts are saturated
    breadth-first; a query whose premise becomes definitively satisfiable
    yields a refutation, so the verdict is exact. A fact is a clause with
    an empty body, and a clause joins facts by resolution (`syntax.resolve`)
    on its body atoms in order, each fact renamed apart within that step;
    the equalities that unification cannot solve by syntax go to the QF
    core with the constraints. Each join state, partial or finished, is
    checked and kept with its defined locals substituted away: a local is
    in neither the head nor a remaining body atom, and one that a
    conjunct defines (an integer with a unit coefficient in a linear
    equality, or a boolean literal) is replaced by its definition, which
    is exact; locals under a disequality, `<=>`, an `ite` or a datatype
    equality stay. A fact that is a variant of a stored one
    (equal once display-renamed) is dropped. Once a cap has truncated
    something, a clause whose head predicate is full is no longer joined
    (every head it derived would be rejected), and a join state whose
    partial check already came back sat is not checked again. Rounds are
    semi-naive: at its last body atom a join skips each pair whose facts
    were all there at the start of the clause's last complete join (one
    that neither the join limit nor the deadline cut), which made that
    pair already, so a body-less clause is joined once; a query's join
    stops at its first derivation;
  * sat by Houdini-style invariant inference: candidate atoms are mined from
    clause constraints, query contracts, and head patterns, then pruned to
    the largest inductive conjunction; if the surviving assignment falsifies
    every query premise it is a genuine model, so the verdict is exact.
    Candidates that a derived fact falsifies are dropped first, the plain
    ones checked before the implications: an implication is kept on a fact
    without a check of its own when that fact was just proved to imply its
    conclusion or its guard's negation. Then each clause checks its head's
    candidates together, and one by one only when it does not imply them
    all;
  * unknown otherwise.

A time limit (-t) bounds every phase: derivation checks the clock for each
fact row it joins, invariant inference for each candidate it tests, and the
QF core inside each query. It starts once the script is read and parsed:
for a file, when it has been read, and in the session, at each
`(check-sat)`, so a session child that waits for its next script spends
none of it waiting.

Designed for desk-scale problems; a production solver (z3/SPACER) remains a
drop-in via the driver configuration.
"""

from __future__ import annotations

import itertools
import math
import sys
import time

from ..syntax import (
    BOOL, FALSE, TRUE, BoolConst, Clause, FComp, FImp, FNot, FVar, Formula,
    IntConst, NameGen, Subst, Term, TermIte, Var, as_lin, conjuncts,
    display_renaming, eq_of, free_vars, lin, lin_sub, mk_and, mk_not, resolve,
)
from . import qfcore
from .smtparse import (
    Session, SmtContext, UnsupportedSmt, commands, parse_sexps,
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def read_script(text: str) -> tuple[list[Clause], SmtContext]:
    script = Session(SmtContext.to_clause)
    for cmd in parse_sexps(text):
        script.take(cmd)
    return script.asserted(), script.ctx


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


# ---------------------------------------------------------------------------
# Bounded bottom-up refutation
# ---------------------------------------------------------------------------

class _Facts:
    def __init__(self, cap_per_pred: int) -> None:
        # each fact is a clause with an empty body
        self.by_pred: dict[str, list[Clause]] = {}
        # beside each fact, its variables in the name order _join renames in
        self.vars: dict[str, list[list[Var]]] = {}
        # each fact under display names: variants share it
        self.seen: set[Clause] = set()
        self.cap = cap_per_pred
        self.saturated = True  # flips when a cap truncates anything

    def add(self, f: Clause) -> bool:
        row = self.by_pred.setdefault(f.head.pred, [])
        key = display_renaming(f).clause(f)
        if key in self.seen:
            return False
        if len(row) >= self.cap:
            self.saturated = False
            return False
        row.append(f)
        self.vars.setdefault(f.head.pred, []).append(
            sorted(free_vars(f), key=lambda w: w.name))
        self.seen.add(key)
        return True


class _FreshNames(NameGen):
    """Fresh variable names that sort in the order they are made ("r#19" <
    "r#210"). lin orders coefficients, and the LIA core eliminates
    variables, by name, so facts depend on how fresh names compare; a pair
    that is skipped makes no names, and with these names it leaves the
    order of every later one, and so every later fact, as it would have
    been."""

    def fresh(self, base: str = "") -> str:
        self.n += 1
        digits = str(self.n)
        return f"{self.prefix}#{len(digits)}{digits}"


def _definition(f: Formula, keep: set[Var]) -> tuple[Var, Term] | None:
    """The first variable outside keep, in name order, that the conjunct f
    defines, and its definition: f is a literal of a boolean, or a linear
    equality with an integer of unit coefficient."""
    lit = f.arg if isinstance(f, FNot) else f
    if isinstance(lit, FVar):
        return None if lit.var in keep else (
            lit.var, BoolConst(not isinstance(f, FNot)))
    if not (isinstance(f, FComp) and f.rel == "=") or TermIte in (
            type(f.lhs), type(f.rhs)):
        return None
    coeffs, const = as_lin(lin_sub(f.lhs, f.rhs))
    for v, a in coeffs.items():  # in name order, as lin sorts them
        if a in (1, -1) and v not in keep:  # a*v + rest = 0: v = -a*rest
            return v, lin({u: -a * b for u, b in coeffs.items() if u != v},
                          -a * const)
    return None


def _project(r: Clause) -> tuple[Clause, list[tuple[Var, Term]]]:
    """r with the locals of its constraint, the variables in neither its
    head nor its body, that a conjunct defines substituted away, the first
    in name order first, until none is left; and the substitutions in the
    order made. Each is exact (ex. v: v = t & phi is phi[t/v])."""
    keep = free_vars(r.body if r.head is None else (r.head, *r.body))
    parts, made = conjuncts(r.constraint), []
    while defs := [(d, i) for i, g in enumerate(parts)
                   if (d := _definition(g, keep))]:
        (v, t), i = min(defs, key=lambda e: e[0][0].name)
        made.append((v, t))
        s = Subst({v: t})
        parts = conjuncts(mk_and(*(s.formula(g) for j, g in enumerate(parts)
                                   if j != i)))
    return Clause(r.head, mk_and(*parts), r.body, r.origin), made


def _join(clause: Clause, facts: _Facts, gen: NameGen,
          deadline: float | None, limit: int,
          joined: dict[Clause, dict[str, int]]) -> list[Clause]:
    """The resolvents of clause with current facts on all its body atoms:
    its derivable head instances, or for a query the first one found.

    joined maps a clause to each predicate's fact count at the start of its
    last complete join, one that neither the limit nor the deadline cut.
    Facts are only appended, so a resolvent built from facts below those
    counts alone was made then, and its head was stored, rejected as a
    variant, or cut by a cap that is still full: it is not made again."""
    counts = {p: len(rows) for p, rows in facts.by_pred.items()}
    old = joined.get(clause)
    # (resolvent so far, verdict of its partial check, whether a fact new
    # since the last complete join built it): sat is exact, so only a state
    # whose partial check was not sat is checked again
    state = [(clause, qfcore.UNKNOWN, old is None)]
    complete, last = True, len(clause.body) - 1
    for k, atom in enumerate(clause.body):
        nxt = []
        seen = old.get(atom.pred, 0) if old else 0
        rows = enumerate(zip(facts.by_pred.get(atom.pred, ()),
                             facts.vars.get(atom.pred, ())))
        for (s, _, new), (i, (f, fvars)) in itertools.product(state, rows):
            new = new or i >= seen
            if k == last and not new:
                continue
            if _expired(deadline):
                facts.saturated = False
                return []
            r = resolve(s, 0, f, {v: gen.fresh_var(v.sort) for v in fvars})
            if r is not None:
                r = _project(r)[0]
            # prune dead partial joins early; unknown survives
            verdict = qfcore.UNSAT if r is None else qfcore.check_sat(
                r.constraint, qfcore.Budget(20_000, deadline))
            if verdict != qfcore.UNSAT:
                nxt.append((r, verdict, new))
            if len(nxt) > limit:
                facts.saturated = complete = False
                break
        state = nxt
    out = []
    for r, verdict, new in state:
        if not new:  # a body-less clause, joined before
            continue
        if verdict != qfcore.SAT:
            verdict = qfcore.check_sat(r.constraint,
                                       qfcore.Budget(60_000, deadline))
        if verdict == qfcore.SAT:
            out.append(r)
            if clause.head is None:  # one derivation refutes
                break
        elif verdict == qfcore.UNKNOWN:
            facts.saturated = False
    if complete and not _expired(deadline):
        joined[clause] = counts
    return out


def refute(clauses: list[Clause], deadline: float | None, rounds: int,
           cap: int, joins: int) -> tuple[str, dict]:
    """unsat if a query fires; sat if saturation completes exactly; else
    unknown. Also returns the derived facts (reachable under-approximation)."""
    gen = _FreshNames("r")
    facts = _Facts(cap)
    queries = [c for c in clauses if c.head is None]
    definite = [c for c in clauses if c.head is not None]
    # equal clauses make equal joins, so they may share their entry
    joined: dict[Clause, dict[str, int]] = {}
    for _ in range(rounds):
        if _expired(deadline):
            return UNKNOWN, facts.by_pred
        grew = False
        for c in definite:
            # facts.add would reject every head: a variant, or over the cap
            if not facts.saturated and len(facts.by_pred.get(c.head.pred, ())) >= cap:
                continue
            for f in _join(c, facts, gen, deadline, joins, joined):
                if facts.add(f):
                    grew = True
        for q in queries:
            if _join(q, facts, gen, deadline, joins, joined):
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
    than discovering the same thing through a full inductiveness check.

    The facts are taken one at a time, and on each the live plain
    candidates are checked before the implications. An implication g => f
    is kept on a fact without a check of its own when that fact was just
    proved to imply f or ~g: the check could only have answered unsat or
    unknown, and both keep a candidate. So the candidates kept are those
    that checking every candidate on every fact, until one falsifies it,
    keeps, and each check made is one of that loop's."""
    for pred, cands in inv.items():
        rows = samples.get(pred, [])[:24]
        if not rows:
            continue
        vs = _pos_vars(pred, preds[pred], pv)
        enc = qfcore.Encoding()
        order = sorted(cands, key=lambda f: isinstance(f, FImp))
        dead: set[Formula] = set()
        for row in rows:
            s = Subst(dict(zip(vs, row.head.args)))
            implied: set[Formula] = set()
            for cand in order:
                if cand in dead or isinstance(cand, FImp) and (
                        cand.rhs in implied or mk_not(cand.lhs) in implied):
                    continue
                if _expired(deadline):
                    break  # out of time: the live candidates stay untested
                verdict = qfcore.check_sat(
                    mk_and(row.constraint, mk_not(s.formula(cand))),
                    qfcore.Budget(30_000, deadline), enc)
                if verdict == qfcore.SAT:
                    dead.add(cand)
                elif verdict == qfcore.UNSAT:
                    implied.add(cand)
        inv[pred] = [c for c in cands if c not in dead]


def _body(c: Clause, inv: dict[str, list[Formula]], pv: dict,
          preds: dict) -> list[Formula]:
    """The conjuncts of the candidates of c's body atoms, instantiated."""
    inst: list[Formula] = []
    for a in c.body:
        inst.extend(conjuncts(_inst(a.pred, a.args, inv, pv, preds)))
    return inst


def _check(c: Clause, inst: list[Formula], goal: Formula,
           deadline: float | None, enc: qfcore.Encoding | None = None) -> str:
    """unsat if c's constraint and the body conjuncts that bear on it imply
    goal."""
    seed = free_vars(c.constraint) | free_vars(goal)
    picked = _relevant(inst, seed)
    q = mk_and(*conjuncts(c.constraint), *picked, mk_not(goal))
    return qfcore.check_sat(q, qfcore.Budget(deadline=deadline), enc)


def _sweep(clauses: list[Clause], inv: dict[str, list[Formula]], pv: dict,
           preds: dict, deadline: float | None
           ) -> dict[str, list[Formula]] | None:
    """inv pruned, in place, to the candidates that every definite clause
    preserves, or None once out of time. Each clause's head candidates are
    first checked together: when the clause implies their conjunction, it
    implies each one, and all are kept without a check of their own."""
    definite = [c for c in clauses if c.head is not None]
    changed = True
    while changed:
        changed = False
        for c in definite:
            cands = inv[c.head.pred]
            if not cands:
                continue
            if _expired(deadline):
                return None
            vs = _pos_vars(c.head.pred, preds[c.head.pred], pv)
            s = Subst({v: t for v, t in zip(vs, c.head.args)})
            goals = [s.formula(cand) for cand in cands]
            # inv is fixed until the loop ends, so the body and its
            # compiled conjuncts serve every check
            inst = _body(c, inv, pv, preds)
            enc = qfcore.Encoding()
            if _check(c, inst, mk_and(*goals), deadline, enc) == qfcore.UNSAT:
                continue
            keep: list[Formula] = []
            for cand, goal in zip(cands, goals):
                if _expired(deadline):
                    return None
                if _check(c, inst, goal, deadline, enc) == qfcore.UNSAT:
                    keep.append(cand)
                else:
                    changed = True
            inv[c.head.pred] = keep
    return inv


def houdini(clauses: list[Clause], preds: dict[str, tuple],
            deadline: float | None,
            samples: dict | None = None) -> str:
    pv: dict = {}
    inv = _mine(clauses, preds, pv)
    if samples:
        _preprune(inv, samples, pv, preds, deadline)
    if _sweep(clauses, inv, pv, preds, deadline) is None:
        return UNKNOWN
    for q in clauses:
        if q.head is None and _check(q, _body(q, inv, pv, preds), FALSE,
                                     deadline) != qfcore.UNSAT:
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
        return _refused(e)
    return solve_clauses(clauses, ctx.preds, timeout)


def _refused(e: UnsupportedSmt) -> str:
    print(f'(error "{e}")', file=sys.stderr)
    return UNKNOWN


def session(lines, timeout: float | None) -> None:
    """Answer each `(check-sat)` on `lines` for the commands since the last
    `(reset)`, its limit starting at that `(check-sat)`; stop at `(exit)` or
    at the end. Lines that never ask are answered at their end, as a file
    is. The first command refused answers every `(check-sat)` unknown up to
    the next `(reset)`."""
    script, error, asked = Session(SmtContext.to_clause), None, False

    def answer() -> None:
        nonlocal asked
        asked = True
        print(_refused(error) if error else
              solve_clauses(script.asserted(), script.ctx.preds, timeout),
              flush=True)

    for cmd in commands(lines):
        try:
            op = script.take(cmd)
        except UnsupportedSmt as e:
            error = error or e
            continue
        if op == "exit":
            break
        if op == "reset":
            error = None
        elif op == "check-sat":
            answer()
    if not asked:
        answer()


def _usage() -> int:
    print("usage: horn [-t seconds] file.smt2 (- for an SMT-LIB session on "
          "stdin)", file=sys.stderr)
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
        if not 0 < timeout < math.inf:  # also refuses nan
            return _usage()
        del args[i:i + 2]
    if len(args) != 1:
        return _usage()
    if args[0] == "-":
        session(sys.stdin, timeout)
        return 0
    try:
        with open(args[0], encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"horn: cannot read {args[0]}: "
              f"{getattr(e, 'strerror', None) or e}", file=sys.stderr)
        return 2
    print(solve_script(text, timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
