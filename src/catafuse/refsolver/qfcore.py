"""Decision core for quantifier-free LIA + Bool + constructor equality.

check_sat decides formulas built from linear integer atoms, boolean
variables, the usual connectives, ite (both levels), and equalities over
algebraic data type terms. One walk over the formula compiles it into a
table of canonized atoms and a boolean skeleton over their indices: the
connectives and ite become skeleton nodes directly, a term-level ite is
lifted at its atom, and only atoms are rewritten. Each skeleton node then
becomes a graph node that keeps its three-valued value under the current
partial assignment, with counts of its open children and of its children
that decide it; assigning or unassigning an atom updates only the
ancestors whose value changes, so the values are kept along the search
trail instead of being re-evaluated. Callers whose queries repeat
conjuncts may share an Encoding across them, so that each conjunct is
compiled, and its nodes built, once. A small DPLL searches over partial
assignments to the atoms without rewriting the formula: each search node
reads the root's value, propagates the first open top-level literal, or
else branches on the first open atom, and runs a theory check once the
root is true:

  * integers: lia.eliminate drops every variable (Gaussian substitution
    on unit-coefficient equalities, then Fourier-Motzkin elimination with
    integer tightening); an inexact elimination makes a feasible result
    'unknown', and each integer disequality t != 0 branches on t <= -1 and
    -t <= -1;
  * constructor terms: the equalities are unified by `syntax.unify`
    (injectivity, clash and occurs check); the unifier's integer bindings
    and residue feed the LIA check, its boolean ones are checked against
    the assignment. A disequality, with the unifier applied to both sides,
    holds when some position clashes or holds an ADT variable (an infinite
    datatype has another value for it), and otherwise reduces to its
    differing integer and boolean positions: some integer pair must
    differ, unless a boolean pair already does. A boolean in such a
    position, or in a derived boolean equality, that no atom assigns is
    tried both ways.

Everything answers sat/unsat/unknown and never lies: 'unknown' is returned
whenever a budget or an unsupported corner is hit.
"""

from __future__ import annotations

from itertools import islice

from ..syntax import (
    BOOL, FAnd, FComp, FEq, FFalse, FIff, FImp, FIte, FNot, FOr, FTrue, FVar,
    Formula, IntConst, BoolConst, Ctor, Term, Var, as_lin, conjuncts,
    find_term_ite, lin_sub, term_sort, unify,
)
from .lia import Budget, Infeasible, Overflow, canon_atom, eliminate

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# One-pass compile into an atom table and a boolean skeleton
# ---------------------------------------------------------------------------
#
# A skeleton node is an atom index (int), (_NOT, node), (_AND, nodes) or
# (_OR, nodes); true is (_AND, ()) and false is (_OR, ()). The search never
# rewrites it: an Encoding turns it into _Node objects that keep their
# three-valued value (True / False / None for open) under the assignment.

_NOT, _AND, _OR = "not", "and", "or"
_TRUE = (_AND, ())
_FALSE = (_OR, ())


# The node constructors mirror mk_and, mk_or and mk_not, so a skeleton
# equals the one of the formula those would build: one-level flattening,
# dedup (and only), the true/false short-circuits and not-not elimination.
# Every false node is the _FALSE object and every true node _TRUE.

def _and(nodes):
    flat: list = []
    seen: set = set()
    for n in nodes:
        for a in n[1] if type(n) is tuple and n[0] is _AND else (n,):
            if a is _FALSE:
                return _FALSE
            if a not in seen:
                seen.add(a)
                flat.append(a)
    if not flat:
        return _TRUE
    if len(flat) == 1:
        return flat[0]
    return (_AND, tuple(flat))


def _or(nodes):
    flat: list = []
    for n in nodes:
        if type(n) is tuple and n[0] is _OR:
            flat.extend(n[1])
        elif n is _TRUE:
            return _TRUE
        else:
            flat.append(n)
    if not flat:
        return _FALSE
    if len(flat) == 1:
        return flat[0]
    return (_OR, tuple(flat))


def _not(n):
    if n is _TRUE:
        return _FALSE
    if n is _FALSE:
        return _TRUE
    if type(n) is tuple and n[0] is _NOT:
        return n[1]
    return (_NOT, n)


def _compile(f: Formula, atoms: dict[Formula, int]):
    """Skeleton of f in one walk. Connectives and ite become nodes directly;
    a term-level ite is lifted at its atom; only atoms are canonized, and
    each is numbered in atoms when met, so an atom that a short-circuit
    drops leaves a gap in the numbering."""
    t = type(f)
    if t is FAnd:
        return _and([_compile(a, atoms) for a in f.args])
    if t is FOr:
        return _or([_compile(a, atoms) for a in f.args])
    if t is FNot:
        return _not(_compile(f.arg, atoms))
    if t is FComp or t is FEq:
        for side in (f.lhs, f.rhs):
            ite = find_term_ite(side)
            if ite is not None:
                c = _compile(ite.cond, atoms)
                return _or((
                    _and((c, _compile(_atom_replace(f, ite, ite.then), atoms))),
                    _and((_not(c), _compile(_atom_replace(f, ite, ite.els), atoms)))))
        if t is FEq:
            return _TRUE if f.lhs == f.rhs else atoms.setdefault(f, len(atoms))
        g = canon_atom(f)
        if isinstance(g.lhs, IntConst):
            return _TRUE if _const_holds(g) else _FALSE
        return atoms.setdefault(g, len(atoms))
    if t is FVar:
        return atoms.setdefault(f, len(atoms))
    if t is FTrue:
        return _TRUE
    if t is FFalse:
        return _FALSE
    if t is FImp:
        return _or((_not(_compile(f.lhs, atoms)), _compile(f.rhs, atoms)))
    if t is FIff:
        a, b = _compile(f.lhs, atoms), _compile(f.rhs, atoms)
        return _or((_and((a, b)), _and((_not(a), _not(b)))))
    if t is FIte:
        c = _compile(f.cond, atoms)
        return _or((_and((c, _compile(f.then, atoms))),
                    _and((_not(c), _compile(f.els, atoms)))))
    raise TypeError(f"unknown formula {f!r}")


def _replace_term(t: Term, old: Term, new: Term) -> Term:
    """t with `old` replaced by `new`, searched where `find_term_ite`
    searches: in constructor arguments only."""
    if t == old:
        return new
    if isinstance(t, Ctor):
        return Ctor(t.sort, t.ctor, tuple(_replace_term(a, old, new) for a in t.args))
    return t


def _atom_replace(f: Formula, old: Term, new: Term) -> Formula:
    if isinstance(f, FComp):
        return FComp(f.rel, _replace_term(f.lhs, old, new),
                     _replace_term(f.rhs, old, new))
    if isinstance(f, FEq):
        return FEq(_replace_term(f.lhs, old, new),
                   _replace_term(f.rhs, old, new), f.sort)
    raise TypeError


def _const_holds(g: FComp) -> bool:
    v = g.lhs.value  # type: ignore[union-attr]
    return v == 0 if g.rel == "=" else v <= 0


# ---------------------------------------------------------------------------
# DPLL over the skeleton's nodes, whose values follow the partial assignment
# ---------------------------------------------------------------------------

class _Node:
    """A skeleton node, with its value under the current partial assignment.

    op is _NOT, _AND, _OR, or None for an atom, which holds its canonized
    atom. An and/or node counts its children that are open and those that
    hold its deciding value (false under and, true under or), so setting an
    atom updates only the ancestors whose value changes."""

    __slots__ = ("op", "kids", "atom", "parents", "val", "open", "hits")

    def __init__(self, op, kids: tuple = (), atom: Formula | None = None) -> None:
        self.op = op
        self.kids = kids
        self.atom = atom
        self.parents: list[_Node] = []  # one entry per occurrence as a child
        vals = [k.val for k in kids]
        if op is None:
            self.val = None
        elif op is _NOT:
            self.val = None if vals[0] is None else not vals[0]
        else:
            stop = op is _OR
            self.open = vals.count(None)
            self.hits = vals.count(stop)
            self.val = stop if self.hits else None if self.open else not stop


class _Conjunct:
    """A compiled top-level conjunct: its top node and, for each atom it
    uses, the nodes of the conjunct that have that atom as a child."""

    __slots__ = ("top", "uses")

    def __init__(self, top: _Node, uses: dict[_Node, list[_Node]]) -> None:
        self.top = top
        self.uses = uses


def _graph(n, leaves: list[_Node], made: dict[int, _Node],
           uses: dict[_Node, list[_Node]]) -> _Node:
    """The node of skeleton n. A skeleton object met twice (the condition
    of an ite, say) becomes one node with two parents."""
    if type(n) is int:
        return leaves[n]
    node = made.get(id(n))
    if node is None:
        op, arg = n
        kids = tuple(_graph(c, leaves, made, uses)
                     for c in ((arg,) if op is _NOT else arg))
        node = made[id(n)] = _Node(op, kids)
        for k in kids:
            if k.op is None:
                uses.setdefault(k, []).append(node)
            else:
                k.parents.append(node)
    return node


class Encoding:
    """Compiled top-level conjuncts, shared by the queries of one caller.

    Queries that repeat conjuncts (a clause body tried against many Houdini
    candidates, a derived fact against many negated candidates) pass one
    Encoding to check_sat, so each conjunct is compiled, and its nodes
    built, once. A query's root is an and-node over the tops of its
    distinct conjuncts; it does not flatten a top that is itself an
    and-node, as _and would, which changes no value and no decision of the
    search. Atoms, numbered as _compile meets them, are shared by all the
    queries; so are the nodes, which hold the values of one query at a
    time: the search undoes every assignment it makes, so every node is
    back at its unassigned value when check_sat returns."""

    def __init__(self) -> None:
        self.atoms: dict[Formula, int] = {}
        self.leaves: list[_Node] = []   # index -> atom node
        self.memo: dict[Formula, _Conjunct] = {}

    def root(self, f: Formula) -> _Node:
        conjs: dict[_Conjunct, None] = {}
        for c in conjuncts(f):
            e = self.memo.get(c)
            if e is None:
                e = self.memo[c] = self._conjunct(c)
            conjs[e] = None
        root = _Node(_AND, tuple(e.top for e in conjs))
        # this query's parents of its atoms and of its conjunct tops; the
        # lists in uses are shared, so they are never extended in place
        wired: set[_Node] = set()
        for e in conjs:
            for leaf, nodes in e.uses.items():
                if leaf in wired:
                    leaf.parents = leaf.parents + nodes
                else:
                    wired.add(leaf)
                    leaf.parents = nodes
        for e in conjs:
            top = e.top
            if top in wired:
                top.parents = top.parents + [root]
            else:
                wired.add(top)
                top.parents = [root]
        return root

    def _conjunct(self, c: Formula) -> _Conjunct:
        skeleton = _compile(c, self.atoms)
        self.leaves.extend(_Node(None, atom=a) for a in
                           islice(self.atoms, len(self.leaves), None))
        uses: dict[_Node, list[_Node]] = {}
        return _Conjunct(_graph(skeleton, self.leaves, {}, uses), uses)


def check_sat(f: Formula, budget: Budget | None = None,
              enc: Encoding | None = None) -> str:
    budget = budget or Budget()
    if enc is None:
        enc = Encoding()
    return _search(enc.root(f), {}, budget)


def _set(leaf: _Node, val: bool | None) -> None:
    """Assign (or, with None, unassign) an atom and update its ancestors."""
    old = leaf.val
    leaf.val = val
    for p in leaf.parents:
        _child_changed(p, old, val)


def _child_changed(n: _Node, old: bool | None, new: bool | None) -> None:
    if n.op is _NOT:
        v = None if new is None else not new
    else:
        stop = n.op is _OR
        if old is None:
            n.open -= 1
        elif old is stop:
            n.hits -= 1
        if new is None:
            n.open += 1
        elif new is stop:
            n.hits += 1
        v = stop if n.hits else None if n.open else not stop
    was = n.val
    if v is not was:
        n.val = v
        for p in n.parents:
            _child_changed(p, was, v)


def _residue(n: _Node) -> tuple[bool, _Node]:
    """(negated, core) of an open node once closed children drop out: an
    and/or left with a single open child stands for that child."""
    neg = False
    while n.op is not None:
        if n.op is _NOT:
            neg = not neg
            n = n.kids[0]
        elif n.open == 1:
            n = next(c for c in n.kids if c.val is None)
        else:
            break
    return neg, n


def _unit(n: _Node) -> tuple[_Node, bool] | None:
    """The first open literal among the open node's top-level conjuncts."""
    neg, core = _residue(n)
    if core.op is None:
        return core, not neg
    if neg or core.op is not _AND:
        return None
    for c in core.kids:
        if c.val is None:
            unit = _unit(c)
            if unit is not None:
                return unit
    return None


def _first_open(n: _Node) -> _Node:
    """The first atom, depth first, under the open children of an open node."""
    while n.op is not None:
        n = n.kids[0] if n.op is _NOT else next(c for c in n.kids if c.val is None)
    return n


def _search(root: _Node, lits: dict[Formula, bool], budget: Budget) -> str:
    if not budget.spend():
        return UNKNOWN
    v = root.val
    if v is False:
        return UNSAT
    if v is True:
        return _theory_check(lits, budget)
    unit = _unit(root)
    if unit is not None:
        # unit propagation: the opposite polarity falsifies a top conjunct
        leaf, val = unit
        branches: tuple[bool, ...] = (val,)
    else:
        leaf, branches = _first_open(root), (True, False)
    out = UNSAT
    for val in branches:
        _set(leaf, val)
        lits[leaf.atom] = val
        try:
            r = _search(root, lits, budget)
        finally:
            del lits[leaf.atom]
            _set(leaf, None)
        if r == SAT:
            return SAT
        if r == UNKNOWN:
            out = UNKNOWN
    return out


# ---------------------------------------------------------------------------
# Theory: constructor equalities by unification, integers by elimination
# ---------------------------------------------------------------------------

def _theory_check(lits: dict[Formula, bool], budget: Budget) -> str:
    eqs: list[tuple[Term, Term]] = []
    diseqs: list[tuple[Term, Term]] = []
    lia_le: list[tuple[dict[Var, int], int]] = []   # sum c·v + k <= 0
    lia_eq: list[tuple[dict[Var, int], int]] = []
    for atom, val in lits.items():
        if isinstance(atom, FVar):
            continue
        if isinstance(atom, FEq):
            (eqs if val else diseqs).append((atom.lhs, atom.rhs))
        elif isinstance(atom, FComp):
            coeffs, k = as_lin(atom.lhs)
            if atom.rel == "=<":
                if val:
                    lia_le.append((coeffs, k))
                else:  # not(t <= 0)  ==  -t + 1 <= 0
                    lia_le.append(({v: -a for v, a in coeffs.items()}, 1 - k))
            else:  # "="
                if val:
                    lia_eq.append((coeffs, k))
                else:
                    diseqs.append((atom.lhs, atom.rhs))
    u = unify(eqs)
    if u is None:
        return UNSAT  # a constructor clash, or a term inside itself
    s, residue = u
    if any(term_sort(x).is_adt for x, _ in residue):
        return UNKNOWN  # only an ADT ite is left there, and _compile lifts it
    # the unifier's integer and boolean bindings, and its residue, are the
    # equalities the constructor equalities leave to the other theories
    bool_eqs: list[tuple[Term, Term]] = []
    for x, y in (*s.mapping.items(), *residue):
        sort = term_sort(x)
        if sort == BOOL:
            bool_eqs.append((x, y))
        elif not sort.is_adt:
            lia_eq.append(as_lin(lin_sub(x, y)))
    for x, y in bool_eqs:
        r = _bool_eq_status(x, y, lits)
        if r is False:
            return UNSAT
        if r is None:
            return _split_bool(lits, x, y, budget)
    # disequalities: ADT ones must not be forced equal; each becomes a list
    # of integer alternatives, one of which must differ from zero
    int_diseqs: list[list[tuple[dict[Var, int], int]]] = []
    for a, b in diseqs:
        if not (isinstance(a, (Var, Ctor)) and term_sort(a).is_adt):
            int_diseqs.append([as_lin(lin_sub(a, b))])
            continue
        ca, cb = s.term(a), s.term(b)
        if ca == cb:
            return UNSAT
        diffs = _basic_diffs(ca, cb)
        if diffs is None:
            continue
        alts = []
        for x, y in diffs:
            if term_sort(x) != BOOL:
                alts.append(as_lin(lin_sub(x, y)))
                continue
            r = _bool_eq_status(x, y, lits)
            if r is None:
                return _split_bool(lits, x, y, budget)
            if r is False:
                break  # the boolean positions differ: a != b holds
        else:
            if not alts:
                return UNSAT
            int_diseqs.append(alts)
    return _lia_with_diseqs(lia_eq, lia_le, int_diseqs, budget)


def _split_bool(lits: dict[Formula, bool], x: Term, y: Term,
                budget: Budget) -> str:
    """Theory check under both values of an unassigned boolean of x and y:
    the skeleton's root holds whatever value it takes."""
    v = next((FVar(t) for t in (x, y)
              if isinstance(t, Var) and FVar(t) not in lits), None)
    if v is None:
        return UNKNOWN
    out = UNSAT
    for val in (True, False):
        r = _theory_check({**lits, v: val}, budget)
        if r == SAT:
            return SAT
        if r == UNKNOWN:
            out = UNKNOWN
    return out


def _basic_diffs(a: Term, b: Term) -> list[tuple[Term, Term]] | None:
    """The integer and boolean positions, through same-constructor
    arguments, where the canonical terms a and b differ: a != b holds iff
    some such pair differs. None when a != b is satisfiable whatever those
    positions hold: some position clashes, or holds an ADT variable, which
    an infinite datatype can give another value."""
    if a == b:
        return []
    if isinstance(a, Ctor) and isinstance(b, Ctor) and a.ctor == b.ctor:
        diffs: list[tuple[Term, Term]] = []
        for x, y in zip(a.args, b.args):
            d = _basic_diffs(x, y)
            if d is None:
                return None
            diffs += d
        return diffs
    if term_sort(a).is_adt:
        return None
    return [(a, b)]


def _bool_eq_status(x: Term, y: Term, lits: dict[Formula, bool]) -> bool | None:
    def val(t: Term) -> bool | None:
        if isinstance(t, BoolConst):
            return t.value
        if isinstance(t, Var):
            return lits.get(FVar(t))
        return None

    vx, vy = val(x), val(y)
    if vx is None or vy is None:
        if isinstance(x, Var) and isinstance(y, Var) and x == y:
            return True
        return None
    return vx == vy


# ---------------------------------------------------------------------------
# Integer linear feasibility
# ---------------------------------------------------------------------------

def _lia_with_diseqs(eqs, les, diseqs, budget: Budget) -> str:
    """Integer feasibility of eqs and les together with the disequalities,
    each a list of alternative rows t of which one must have t != 0."""
    if not budget.spend(len(diseqs) + 1):
        return UNKNOWN
    if not diseqs:
        return _lia_feasible(eqs, les, budget)
    alts, rest = diseqs[0], diseqs[1:]
    out = UNSAT
    for c, k in alts:
        if not c:
            if k == 0:
                continue
            return _lia_with_diseqs(eqs, les, rest, budget)
        # t != 0  ->  t <= -1  or  -t <= -1
        for sgn in (1, -1):
            le = ({v: sgn * a for v, a in c.items()}, sgn * k + 1)
            r = _lia_with_diseqs(eqs, les + [le], rest, budget)
            if r == SAT:
                return SAT
            if r == UNKNOWN:
                out = UNKNOWN
    return out


def _lia_feasible(eqs, les, budget: Budget) -> str:
    try:
        _, _, exact = eliminate(eqs, les, lambda v: True, budget)
    except Infeasible:
        return UNSAT
    except Overflow:
        return UNKNOWN
    return SAT if exact else UNKNOWN
