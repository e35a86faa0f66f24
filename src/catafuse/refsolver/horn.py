"""Reference CHC solver.

Run as `python -m catafuse.refsolver.horn [-t seconds] file.smt2`, which
prints one verdict for the file, or with the file `-` as an interactive
SMT-LIB session on stdin. The session answers each `(check-sat)` for the
commands since the last `(reset)` (or since the start) and exits on `(exit)`
or at the end of its input. Piping one script into it therefore prints that
script's verdict; input that never asks `(check-sat)` is answered once at
its end, as a file is. A command outside the emitted dialect makes every
`(check-sat)` up to the next `(reset)` unknown, with the error on stderr.
The limit, a finite positive number of seconds, is each solve's own.

Decides satisfiability of Horn clause scripts in the emitted dialect and
prints sat, unsat, or unknown:

  * unsat by bounded bottom-up derivation: constrained facts are saturated
    breadth-first; a query whose premise becomes definitively satisfiable
    yields a refutation, so the verdict is exact. A fact is a clause with
    an empty body, and a clause joins facts by resolution (`syntax.resolve`)
    on its body atoms in order, each fact renamed apart; the equalities that
    unification cannot solve by syntax go to the QF core with the
    constraints. A fact that is a variant of a stored one (equal once
    display-renamed) is dropped. Once a cap has truncated something, a
    clause whose head predicate is full is no longer joined (every head it
    derived would be rejected), and a join state whose partial check
    already came back sat is not checked again;
  * sat by Houdini-style invariant inference: candidate atoms are mined from
    clause constraints, query contracts, and head patterns, then pruned to
    the largest inductive conjunction; if the surviving assignment falsifies
    every query premise it is a genuine model, so the verdict is exact;
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
    BOOL, FALSE, TRUE, Clause, FComp, FImp, FNot, FVar, Formula, IntConst,
    NameGen, Subst, Term, Var, conjuncts, display_renaming, eq_of, free_vars,
    mk_and, mk_not, resolve,
)
from . import qfcore
from .smtparse import SmtContext, UnsupportedSmt, balanced, parse_sexps

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class Script:
    """The declarations and clauses of an SMT-LIB script, taken one command
    at a time; `read_script` and the session on stdin both feed it."""

    def __init__(self) -> None:
        self.ctx = SmtContext()
        self.clauses: list[Clause] = []

    def take(self, cmd) -> None:
        if not isinstance(cmd, list) or not cmd:
            return
        op = cmd[0]
        if op == "declare-datatypes":
            self.ctx.declare_datatypes(cmd[1], cmd[2])
        elif op == "declare-fun":
            self.ctx.declare_fun(cmd[1], cmd[2], cmd[3])
        elif op == "declare-const":
            self.ctx.declare_fun(cmd[1], [], cmd[2])
        elif op == "assert":
            self.clauses.append(self.ctx.to_clause(cmd[1]))
        elif op not in ("set-logic", "set-option", "set-info", "check-sat",
                        "exit"):
            raise UnsupportedSmt(f"unsupported command {op}")


def read_script(text: str) -> tuple[list[Clause], SmtContext]:
    script = Script()
    for cmd in parse_sexps(text):
        script.take(cmd)
    return script.clauses, script.ctx


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


# ---------------------------------------------------------------------------
# Bounded bottom-up refutation
# ---------------------------------------------------------------------------

class _Facts:
    def __init__(self, cap_per_pred: int) -> None:
        # each fact is a clause with an empty body
        self.by_pred: dict[str, list[Clause]] = {}
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
          limit: int) -> list[Clause]:
    """The resolvents of clause with current facts on all its body atoms:
    its derivable head instances."""
    # (resolvent so far, verdict of its partial check): sat is exact, so
    # only a state whose partial check was not sat is checked again
    state = [(clause, qfcore.UNKNOWN)]
    for atom in clause.body:
        nxt = []
        for (s, _), f in itertools.product(state, facts.by_pred.get(atom.pred, ())):
            if _expired(budget.deadline):
                facts.saturated = False
                return []
            ren = {v: gen.fresh_var(v.sort)
                   for v in sorted(free_vars(f), key=lambda w: w.name)}
            r = resolve(s, 0, Subst(ren).clause(f))
            # prune dead partial joins early; unknown survives
            verdict = qfcore.UNSAT if r is None else qfcore.check_sat(
                r.constraint, qfcore.Budget(20_000, budget.deadline))
            if verdict != qfcore.UNSAT:
                nxt.append((r, verdict))
            if len(nxt) > limit:
                facts.saturated = False
                break
        state = nxt
    out = []
    for r, verdict in state:
        if verdict != qfcore.SAT:
            verdict = qfcore.check_sat(r.constraint,
                                       qfcore.Budget(60_000, budget.deadline))
        if verdict == qfcore.SAT:
            out.append(r)
        elif verdict == qfcore.UNKNOWN:
            facts.saturated = False
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
            for f in _join(c, facts, gen, budget, joins):
                if facts.add(f):
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
        substs = [(Subst(dict(zip(vs, f.head.args))), f.constraint)
                  for f in rows]
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
        return _refused(e)
    return solve_clauses(clauses, ctx.preds, timeout)


def _refused(e: UnsupportedSmt) -> str:
    print(f'(error "{e}")', file=sys.stderr)
    return UNKNOWN


def _commands(lines):
    """The commands on `lines`, each as soon as the line that ends it is
    read; an UnsupportedSmt in place of lines that do not parse."""
    buf = ""
    for line in lines:
        buf += line
        if balanced(buf):
            yield from _parsed(buf)
            buf = ""
    if buf:
        yield from _parsed(buf)


def _parsed(text: str) -> list:
    try:
        return parse_sexps(text)
    except UnsupportedSmt as e:
        return [e]


def session(lines, timeout: float | None) -> None:
    """Answer each `(check-sat)` on `lines` for the commands since the last
    `(reset)`, its limit starting at that `(check-sat)`; stop at `(exit)` or
    at the end. Lines that never ask are answered at their end, as a file
    is."""
    script, error, asked = Script(), None, False

    def answer() -> None:
        nonlocal asked
        asked = True
        print(_refused(error) if error else
              solve_clauses(script.clauses, script.ctx.preds, timeout),
              flush=True)

    for cmd in _commands(lines):
        op = cmd[0] if isinstance(cmd, list) and cmd else None
        if op == "exit":
            break
        if op == "reset":
            script, error = Script(), None
        elif op == "check-sat":
            answer()
        elif isinstance(cmd, UnsupportedSmt):
            error = error or cmd
        else:
            try:
                script.take(cmd)
            except UnsupportedSmt as e:
                error = error or e
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
    with open(args[0], encoding="utf-8") as fh:
        text = fh.read()
    print(solve_script(text, timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
