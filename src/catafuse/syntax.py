"""Core data model: sorts, terms, constraint formulas, atoms, clauses.

Everything here is immutable and hashable; clause sets can be shared freely
across threads. Pretty-printing produces the same surface syntax the parser
accepts, with per-clause display names (A, B, ..., Z, A1, ...) so derived
clauses read like hand-written ones. The printers (`pretty_term`,
`pretty_formula`, `pretty_atom`, which every `__str__` calls with no map)
take those names as a map (`display_names`) instead of printing a renamed
copy; `display_renaming` builds that copy for the callers that keep it.

The value classes behave like frozen dataclasses (`Problem` like a plain
one) but are built by `value_class`, not `dataclasses`: this module is on
the import path of the bundled oracle and CHC-solver children, and
`dataclasses` (with `inspect`, `re`, `enum` and `ast`) plus its per-class
code generation took about half of a child's import time. Nor does the
module import `typing`; its annotations are never evaluated.

Three term operations are written here once, for every other module:
`vars_in_order` (the walk of `free_vars`, in first-occurrence order, which
display names, SMT-LIB binders and definition heads follow), `lin_sum`
(every sum of scaled linear terms, made canonical by `lin`) and
`find_term_ite` (the term-level ite that the QF core lifts out of an atom
and that the SMT-LIB reader names in a predicate argument). Unification
and resolution are written here once too: `unify` decides the constructor
equalities of the bundled oracle's decision core and unifies the atoms of
`resolve`, which is both the transformer's unfolding step and the bundled
CHC solver's refutation join. So is evaluation: `eval_term` and
`eval_formula` give a term's value and a formula's truth under an
assignment, for the brute-force catamorphism check (`catas.eval_cata`),
the constant folding of `engine.simplify` and the tests that check the QF
core.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

def _frozen_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{type(self).__qualname__}({args})"


# The cached hash is kept in the instance dict, so a pickled object would
# carry a string hash from another process; nothing pickles these objects.
_CACHED_HASH = """
def __hash__(self):
    try:
        return self._hash
    except AttributeError:
        h = hash({0})
        _set(self, '_hash', h)
        return h"""


def value_class(cls=None, *, frozen: bool = True, cache_hash: bool = False):
    """Class decorator with the semantics of `@dataclass(frozen=True)` (or of
    `@dataclass` when not frozen) for a class whose annotated fields are
    listed in its body, defaults included.

    `__init__`, `__eq__` and, for a frozen class, `__hash__` are generated
    in one `exec`: `__eq__` compares the field tuples of two objects of the
    same class, and `__hash__` hashes the field tuple, once per object with
    cache_hash (hashing a formula then no longer walks its whole tree each
    time). Frozen classes reject assignment and deletion; mutable ones are
    unhashable.
    """
    if cls is None:
        return lambda c: value_class(c, frozen=frozen, cache_hash=cache_hash)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def fields(obj: str) -> str:
        return "(" + "".join(f"{obj}.{n}," for n in names) + ")"

    params = "".join(f", {n}=_dflt[{n!r}]" if n in defaults else f", {n}"
                     for n in names)
    if frozen:
        init = [f"    _set(self, {n!r}, {n})" for n in names]
    else:
        init = [f"    self.{n} = {n}" for n in names]
    src = [f"def __init__(self{params}):", *(init or ["    pass"]),
           "def __eq__(self, other):",
           "    if other.__class__ is self.__class__:",
           f"        return {fields('self')} == {fields('other')}",
           "    return NotImplemented"]
    if cache_hash:
        src.append(_CACHED_HASH.format(fields("self")))
    elif frozen:
        src += ["def __hash__(self):", f"    return hash({fields('self')})"]
    ns: dict = {}
    exec("\n".join(src), {"_set": object.__setattr__, "_dflt": defaults}, ns)
    for name, fn in ns.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__match_args__ = names
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

@value_class
class Sort:
    name: str

    @property
    def is_basic(self) -> bool:
        return self.name in ("int", "bool")

    @property
    def is_adt(self) -> bool:
        return not self.is_basic

    def __str__(self) -> str:
        return self.name


INT = Sort("int")
BOOL = Sort("bool")


@value_class
class CtorDecl:
    name: str
    arg_sorts: tuple[Sort, ...]


@value_class
class SortDef:
    """An algebraic data type: a sort plus its constructor signatures."""

    sort: Sort
    ctors: tuple[CtorDecl, ...]

    def ctor(self, name: str) -> CtorDecl:
        for c in self.ctors:
            if c.name == name:
                return c
        raise KeyError(f"no constructor {name} in sort {self.sort}")


def list_sort(elem: Sort) -> Sort:
    return Sort(f"list({elem})")


def tree_sort(elem: Sort) -> Sort:
    return Sort(f"tree({elem})")


def list_def(elem: Sort) -> SortDef:
    s = list_sort(elem)
    return SortDef(s, (CtorDecl("[]", ()), CtorDecl("cons", (elem, s))))


def tree_def(elem: Sort) -> SortDef:
    s = tree_sort(elem)
    return SortDef(s, (CtorDecl("leaf", ()), CtorDecl("node", (s, elem, s))))


class SortTable:
    """Declared ADTs by sort name; list(...) and tree(...) are predeclared lazily."""

    def __init__(self) -> None:
        self._defs: dict[str, SortDef] = {}

    def add(self, sd: SortDef) -> None:
        if sd.sort.name in self._defs:
            raise ValueError(f"sort {sd.sort} already declared")
        self._defs[sd.sort.name] = sd

    def resolve(self, sort: Sort) -> SortDef:
        sd = self._defs.get(sort.name)
        if sd is None:
            if sort.name.startswith("list(") and sort.name.endswith(")"):
                inner = Sort(sort.name[5:-1])
                sd = list_def(inner)
            elif sort.name.startswith("tree(") and sort.name.endswith(")"):
                inner = Sort(sort.name[5:-1])
                sd = tree_def(inner)
            else:
                raise KeyError(f"unknown sort {sort}")
            self._defs[sort.name] = sd
        return sd

    def known(self, sort: Sort) -> bool:
        try:
            self.resolve(sort)
            return True
        except KeyError:
            return False

    def adt_defs(self) -> list[SortDef]:
        return [self._defs[k] for k in sorted(self._defs)]

    def used_by(self, decls: Iterable[PredDecl], clauses: Iterable[Clause]
                ) -> SortTable:
        """A table of the ADTs that the predicates `decls` and the variables
        of `clauses` use, and of those their constructors' arguments use."""
        todo = [s for d in decls for s in d.arg_sorts]
        todo += [v.sort for v in free_vars(list(clauses))]
        out = SortTable()
        while todo:
            s = todo.pop()
            if s.is_adt and s.name not in out._defs:
                sd = out._defs[s.name] = self.resolve(s)
                todo.extend(a for c in sd.ctors for a in c.arg_sorts)
        return out


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return pretty_term(self)


@value_class(cache_hash=True)
class Var(Term):
    name: str
    sort: Sort


@value_class(cache_hash=True)
class IntConst(Term):
    value: int


@value_class(cache_hash=True)
class BoolConst(Term):
    value: bool


@value_class(cache_hash=True)
class LinExpr(Term):
    """a0 + a1*X1 + ... + an*Xn with integer coefficients, kept in canonical form."""

    coeffs: tuple[tuple[Var, int], ...]
    const: int


@value_class(cache_hash=True)
class Ctor(Term):
    sort: Sort
    ctor: str
    args: tuple[Term, ...]


@value_class(cache_hash=True)
class TermIte(Term):
    cond: "Formula"
    then: Term
    els: Term


def lin(coeffs: dict[Var, int] | Iterable[tuple[Var, int]], const: int = 0) -> Term:
    """Canonical linear term: collapses to Var/IntConst when possible."""
    acc: dict[Var, int] = {}
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    for v, a in items:
        acc[v] = acc.get(v, 0) + a
        if acc[v] == 0:
            del acc[v]
    if not acc:
        return IntConst(const)
    if len(acc) == 1 and const == 0:
        (v, a), = acc.items()
        if a == 1:
            return v
    return LinExpr(tuple(sorted(acc.items(), key=lambda p: p[0].name)), const)


def as_lin(t: Term) -> tuple[dict[Var, int], int]:
    """View an Int term as (coeffs, const); raises on non-linear terms."""
    if isinstance(t, Var):
        return {t: 1}, 0
    if isinstance(t, IntConst):
        return {}, t.value
    if isinstance(t, LinExpr):
        return dict(t.coeffs), t.const
    raise TypeError(f"not a linear term: {t!r}")


def lin_sum(parts: Iterable[tuple[int, Term]], const: int = 0) -> Term:
    """The canonical (see `lin`) linear term const + k1*t1 + ... + kn*tn of
    parts (k, t); raises TypeError if some t is not a linear term."""
    acc: dict[Var, int] = {}
    for k, t in parts:
        if isinstance(t, Var):
            acc[t] = acc.get(t, 0) + k
        elif isinstance(t, IntConst):
            const += k * t.value
        elif isinstance(t, LinExpr):
            for v, a in t.coeffs:
                acc[v] = acc.get(v, 0) + k * a
            const += k * t.const
        else:
            raise TypeError(f"not a linear term: {t!r}")
    return lin(acc, const)


def lin_sub(a: Term, b: Term) -> Term:
    return lin_sum(((1, a), (-1, b)))


def term_sort(t: Term) -> Sort:
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, IntConst) or isinstance(t, LinExpr):
        return INT
    if isinstance(t, BoolConst):
        return BOOL
    if isinstance(t, Ctor):
        return t.sort
    if isinstance(t, TermIte):
        return term_sort(t.then)
    raise TypeError(f"unknown term {t!r}")


def find_term_ite(t: Term) -> TermIte | None:
    """The first term-level ite in t, or None. Only constructor arguments are
    searched: a LinExpr cannot hold an ite (`lin_sum` refuses one, and
    smtparse reports `(+ x (ite c a b))` as "ite inside arithmetic")."""
    if isinstance(t, TermIte):
        return t
    if isinstance(t, Ctor):
        for a in t.args:
            found = find_term_ite(a)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# Constraint formulas (quantifier-free LIA + Bool, with ite)
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return pretty_formula(self)


@value_class(cache_hash=True)
class FTrue(Formula):
    pass


@value_class(cache_hash=True)
class FFalse(Formula):
    pass


TRUE = FTrue()
FALSE = FFalse()


@value_class(cache_hash=True)
class FVar(Formula):
    var: Var


@value_class(cache_hash=True)
class FNot(Formula):
    arg: Formula


@value_class(cache_hash=True)
class FAnd(Formula):
    args: tuple[Formula, ...]


@value_class(cache_hash=True)
class FOr(Formula):
    args: tuple[Formula, ...]


@value_class(cache_hash=True)
class FImp(Formula):
    lhs: Formula
    rhs: Formula


@value_class(cache_hash=True)
class FIff(Formula):
    lhs: Formula
    rhs: Formula


@value_class(cache_hash=True)
class FIte(Formula):
    cond: Formula
    then: Formula
    els: Formula


@value_class(cache_hash=True)
class FComp(Formula):
    """LIA atom over Int terms; rel is one of = < =< >= >."""

    rel: str
    lhs: Term
    rhs: Term


@value_class(cache_hash=True)
class FEq(Formula):
    """Equality between same-sorted ADT terms."""

    lhs: Term
    rhs: Term
    sort: Sort


def mk_and(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for f in fs:
        args = f.args if isinstance(f, FAnd) else (f,)
        for a in args:
            if isinstance(a, FFalse):
                return FALSE
            if not isinstance(a, FTrue) and a not in seen:
                seen.add(a)
                flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def mk_or(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    for f in fs:
        if isinstance(f, FOr):
            flat.extend(f.args)
        elif isinstance(f, FTrue):
            return TRUE
        elif not isinstance(f, FFalse):
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


def mk_not(f: Formula) -> Formula:
    if isinstance(f, FTrue):
        return FALSE
    if isinstance(f, FFalse):
        return TRUE
    if isinstance(f, FNot):
        return f.arg
    return FNot(f)


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, FAnd):
        return f.args
    if isinstance(f, FTrue):
        return ()
    return (f,)


def eq_of(lhs: Term, rhs: Term, sort: Sort) -> Formula:
    """Sort-directed equality: LIA atom on int, iff on bool, FEq on ADTs."""
    if sort == INT:
        return FComp("=", lhs, rhs)
    if sort == BOOL:
        return FIff(_as_formula(lhs), _as_formula(rhs))
    return FEq(lhs, rhs, sort)


def _as_formula(t: Term) -> Formula:
    if isinstance(t, Var):
        return FVar(t)
    if isinstance(t, BoolConst):
        return TRUE if t.value else FALSE
    if isinstance(t, TermIte):
        return FIte(t.cond, _as_formula(t.then), _as_formula(t.els))
    raise TypeError(f"not a boolean term: {t!r}")


# ---------------------------------------------------------------------------
# Atoms, clauses, problems
# ---------------------------------------------------------------------------

@value_class
class Atom:
    pred: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return pretty_atom(self)


@value_class
class Clause:
    """H <- c, B.  head is None for a query (head false)."""

    head: Atom | None
    constraint: Formula
    body: tuple[Atom, ...]
    origin: str = "source"

    @property
    def is_query(self) -> bool:
        return self.head is None

    def __str__(self) -> str:
        return pretty_clause(self)


PRED_PROGRAM = "program"
PRED_CATA = "catamorphism"
PRED_TRUE = "builtin-true"


@value_class
class PredDecl:
    name: str
    arg_sorts: tuple[Sort, ...]
    kind: str = PRED_PROGRAM
    # Catamorphism argument partition: indices of input-basic, input-ADT, output args.
    in_idx: tuple[int, ...] = ()
    adt_idx: int = -1
    out_idx: tuple[int, ...] = ()


@value_class(frozen=False)
class Problem:
    sorts: SortTable
    preds: dict[str, PredDecl]
    program: list[Clause]
    properties: list[Clause]
    queries: list[Clause]

    def definite_clauses(self) -> list[Clause]:
        return self.program + self.properties

    def all_clauses(self) -> list[Clause]:
        return self.program + self.properties + self.queries


# ---------------------------------------------------------------------------
# Variables: collection, renaming, substitution
# ---------------------------------------------------------------------------

def term_vars(t: Term, add) -> None:
    """Call `add` on each variable occurrence of t, left to right."""
    if isinstance(t, Var):
        add(t)
    elif isinstance(t, LinExpr):
        for v, _ in t.coeffs:
            add(v)
    elif isinstance(t, Ctor):
        for a in t.args:
            term_vars(a, add)
    elif isinstance(t, TermIte):
        formula_vars(t.cond, add)
        term_vars(t.then, add)
        term_vars(t.els, add)


def formula_vars(f: Formula, add) -> None:
    """Call `add` on each variable occurrence of f, left to right."""
    if isinstance(f, FVar):
        add(f.var)
    elif isinstance(f, FNot):
        formula_vars(f.arg, add)
    elif isinstance(f, (FAnd, FOr)):
        for a in f.args:
            formula_vars(a, add)
    elif isinstance(f, (FImp, FIff)):
        formula_vars(f.lhs, add)
        formula_vars(f.rhs, add)
    elif isinstance(f, FIte):
        formula_vars(f.cond, add)
        formula_vars(f.then, add)
        formula_vars(f.els, add)
    elif isinstance(f, (FComp, FEq)):
        term_vars(f.lhs, add)
        term_vars(f.rhs, add)


def _visit_vars(x, add) -> None:
    if isinstance(x, Term):
        term_vars(x, add)
    elif isinstance(x, Formula):
        formula_vars(x, add)
    elif isinstance(x, Atom):
        for a in x.args:
            term_vars(a, add)
    elif isinstance(x, Clause):
        if x.head is not None:
            for a in x.head.args:
                term_vars(a, add)
        formula_vars(x.constraint, add)
        for at in x.body:
            for a in at.args:
                term_vars(a, add)
    elif isinstance(x, (list, tuple, set, frozenset)):
        for item in x:
            _visit_vars(item, add)
    else:
        raise TypeError(f"no variables in a {type(x)}")


def free_vars(x, kind: str = "all") -> set[Var]:
    """Variables of a term/formula/atom/clause; kind selects all|basic|adt."""
    out: set[Var] = set()
    _visit_vars(x, out.add)
    if kind == "basic":
        return {v for v in out if v.sort.is_basic}
    if kind == "adt":
        return {v for v in out if v.sort.is_adt}
    return out


def vars_in_order(x) -> list[Var]:
    """The variables of x (as for `free_vars`), each once, in order of first
    occurrence: a clause's head, then its constraint, then its body."""
    out: dict[Var, None] = {}
    _visit_vars(x, out.setdefault)
    return list(out)


class Subst:
    """Sort-preserving map from variables to terms."""

    def __init__(self, mapping: dict[Var, Term] | None = None) -> None:
        self.mapping: dict[Var, Term] = dict(mapping or {})

    def __bool__(self) -> bool:
        return bool(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subst) and self.mapping == other.mapping

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{pretty_term(t)}" for v, t in sorted(
            self.mapping.items(), key=lambda p: p[0].name))
        return "{" + inner + "}"

    def term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return self.mapping.get(t, t)
        if isinstance(t, (IntConst, BoolConst)):
            return t
        if isinstance(t, LinExpr):
            m = self.mapping
            return lin_sum(((a, m.get(v, v)) for v, a in t.coeffs), t.const)
        if isinstance(t, Ctor):
            return Ctor(t.sort, t.ctor, tuple(self.term(a) for a in t.args))
        if isinstance(t, TermIte):
            return TermIte(self.formula(t.cond), self.term(t.then), self.term(t.els))
        raise TypeError(f"unknown term {t!r}")

    def formula(self, f: Formula) -> Formula:
        if isinstance(f, (FTrue, FFalse)):
            return f
        if isinstance(f, FVar):
            img = self.term(f.var)
            return f if img is f.var else _as_formula(img)
        if isinstance(f, FNot):
            return mk_not(self.formula(f.arg))
        if isinstance(f, FAnd):
            return mk_and(*(self.formula(a) for a in f.args))
        if isinstance(f, FOr):
            return mk_or(*(self.formula(a) for a in f.args))
        if isinstance(f, FImp):
            return FImp(self.formula(f.lhs), self.formula(f.rhs))
        if isinstance(f, FIff):
            return FIff(self.formula(f.lhs), self.formula(f.rhs))
        if isinstance(f, FIte):
            return FIte(self.formula(f.cond), self.formula(f.then), self.formula(f.els))
        if isinstance(f, FComp):
            return FComp(f.rel, self.term(f.lhs), self.term(f.rhs))
        if isinstance(f, FEq):
            return FEq(self.term(f.lhs), self.term(f.rhs), f.sort)
        raise TypeError(f"unknown formula {f!r}")

    def atom(self, a: Atom) -> Atom:
        return Atom(a.pred, tuple(self.term(t) for t in a.args))

    def clause(self, c: Clause) -> Clause:
        head = None if c.head is None else self.atom(c.head)
        return Clause(head, self.formula(c.constraint),
                      tuple(self.atom(a) for a in c.body), c.origin)


# ---------------------------------------------------------------------------
# Evaluation under an assignment
# ---------------------------------------------------------------------------

def eval_term(t: Term, env: dict[Var, object]) -> object:
    """The value of t when each variable takes its value in env: an int, a
    bool, or for a constructor term (constructor, *argument values)."""
    if isinstance(t, Var):
        return env[t]
    if isinstance(t, (IntConst, BoolConst)):
        return t.value
    if isinstance(t, LinExpr):
        return sum(a * env[v] for v, a in t.coeffs) + t.const  # type: ignore
    if isinstance(t, Ctor):
        return (t.ctor, *(eval_term(a, env) for a in t.args))
    if isinstance(t, TermIte):
        return eval_term(t.then if eval_formula(t.cond, env) else t.els, env)
    raise TypeError(f"cannot evaluate {t!r}")


def eval_formula(f: Formula, env: dict[Var, object]) -> bool:
    """Whether f holds when each variable takes its value in env."""
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FVar):
        return bool(env[f.var])
    if isinstance(f, FNot):
        return not eval_formula(f.arg, env)
    if isinstance(f, FAnd):
        return all(eval_formula(a, env) for a in f.args)
    if isinstance(f, FOr):
        return any(eval_formula(a, env) for a in f.args)
    if isinstance(f, FImp):
        return (not eval_formula(f.lhs, env)) or eval_formula(f.rhs, env)
    if isinstance(f, FIff):
        return eval_formula(f.lhs, env) == eval_formula(f.rhs, env)
    if isinstance(f, FIte):
        return eval_formula(f.then if eval_formula(f.cond, env) else f.els, env)
    if isinstance(f, FComp):
        l = eval_term(f.lhs, env)
        r = eval_term(f.rhs, env)
        return {"=": l == r, "<": l < r, "=<": l <= r,
                ">=": l >= r, ">": l > r}[f.rel]  # type: ignore[operator]
    if isinstance(f, FEq):
        return eval_term(f.lhs, env) == eval_term(f.rhs, env)
    raise TypeError(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

def _rigid(v: Var, t: Term) -> bool:
    """v is t or a constructor argument of t, at any depth."""
    return t == v or (isinstance(t, Ctor)
                      and any(_rigid(v, a) for a in t.args))


class _Triangular(Subst):
    """Bindings whose images may hold variables bound after them."""

    def term(self, t: Term) -> Term:
        if isinstance(t, Var):
            img = self.mapping.get(t)
            return t if img is None else self.term(img)
        if isinstance(t, LinExpr):
            return lin_sum(((a, self.term(v)) for v, a in t.coeffs), t.const)
        return super().term(t)


def _unify(lhs: Term, rhs: Term, b: _Triangular,
           residue: list[tuple[Term, Term]]) -> bool:
    m = b.mapping
    while isinstance(lhs, Var) and lhs in m:
        lhs = m[lhs]
    while isinstance(rhs, Var) and rhs in m:
        rhs = m[rhs]
    if isinstance(lhs, Ctor) and isinstance(rhs, Ctor):
        if lhs.sort != rhs.sort or lhs.ctor != rhs.ctor or len(lhs.args) != len(rhs.args):
            return False
        return all(_unify(a, c, b, residue) for a, c in zip(lhs.args, rhs.args))
    # a leaf: the tests below need both sides with every binding applied
    lhs, rhs = b.term(lhs), b.term(rhs)
    if lhs == rhs:
        return True
    # the left side is bound first: which variable survives decides the
    # names in unfolded clauses and in derived facts
    for v, t in ((lhs, rhs), (rhs, lhs)):
        if isinstance(v, Var) and v not in free_vars(t):
            m[v] = t
            return True
    for v, t in ((lhs, rhs), (rhs, lhs)):
        if isinstance(v, Var) and v.sort.is_adt and _rigid(v, t):
            return False  # no finite term equals a constructor term inside it
    # LIA / ite / constant subterms, and a basic variable that occurs on the
    # other side: semantic equality is the constraint's job
    residue.append((lhs, rhs))
    return True


def unify(pairs: Iterable[tuple[Term, Term]]
          ) -> tuple[Subst, tuple[tuple[Term, Term], ...]] | None:
    """Most general unifier of the term pairs, as (unifier, residue).

    Constructor terms unify structurally. Where two subterms meet that are
    not both constructors and neither is a variable that can be bound (linear
    terms, constants, ite, a basic variable occurring on the other side),
    the pair is left in the residue, with the unifier applied: the pairs'
    common instances are the unifier's instances that equate every residue
    pair. None only for a constructor clash, or for an ADT variable that
    would have to equal a constructor term containing it. Bindings stay
    triangular (Baader and Snyder 2001); the idempotent unifier is built at
    the end, in their order."""
    b = _Triangular()
    residue: list[tuple[Term, Term]] = []
    if not all(_unify(x, y, b, residue) for x, y in pairs):
        return None
    s = Subst({v: b.term(t) for v, t in b.mapping.items()})
    return s, tuple((s.term(x), s.term(y)) for x, y in residue)


def mgu(a1: Atom, a2: Atom) -> tuple[Subst, tuple[Formula, ...]] | None:
    """`unify` on the arguments of two atoms of one predicate, its residue
    as equalities for the constraint."""
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    u = unify(zip(a1.args, a2.args))
    if u is None:
        return None
    s, residue = u
    return s, tuple(eq_of(x, y, term_sort(x)) for x, y in residue)


def resolve(c: Clause, i: int, k: Clause, ren: dict[Var, Var]) -> Clause | None:
    """The resolvent of c on its i-th body atom with k, a definite clause
    that ren (see `rename_apart`) renames apart from c: the unifier applied to
    c's head, both constraints and the body c.body[:i] + k.body +
    c.body[i+1:], k's parts renamed in the same walk, with the residue
    conjoined. None where the atoms do not unify."""
    u = mgu(c.body[i], Subst(ren).atom(k.head))
    if u is None:
        return None
    s, residue = u
    sk = Subst({**s.mapping, **{v: s.term(t) for v, t in ren.items()}})
    head = None if c.head is None else s.atom(c.head)
    body = (*(s.atom(a) for a in c.body[:i]), *(sk.atom(a) for a in k.body),
            *(s.atom(a) for a in c.body[i + 1:]))
    return Clause(head, mk_and(s.formula(c.constraint),
                               sk.formula(k.constraint), *residue),
                  body, c.origin)


# ---------------------------------------------------------------------------
# Fresh names and renaming
# ---------------------------------------------------------------------------

class NameGen:
    """Deterministic fresh-name source; '#' keeps names out of the surface lexicon."""

    def __init__(self, prefix: str = "V") -> None:
        self.prefix = prefix
        self.n = 0

    def fresh(self, base: str = "") -> str:
        self.n += 1
        stem = base.split("#")[0] if base else self.prefix
        return f"{stem}#{self.n}"

    def fresh_var(self, sort: Sort, base: str = "") -> Var:
        return Var(self.fresh(base), sort)


def rename_apart(c: Clause, avoid: set[Var], gen: NameGen) -> dict[Var, Var]:
    """The renaming, in name order, of c's variables named like one of avoid
    to fresh ones: bijective, it makes c a variant disjoint from avoid."""
    ren: dict[Var, Var] = {}
    taken = {v.name for v in avoid}
    for v in sorted(free_vars(c), key=lambda w: w.name):
        if v.name in taken:
            nv = gen.fresh_var(v.sort, v.name)
            while nv.name in taken:
                nv = gen.fresh_var(v.sort, v.name)
            ren[v] = nv
            taken.add(nv.name)
    return ren


# ---------------------------------------------------------------------------
# Variant matching (clause isomorphism modulo variable renaming)
# ---------------------------------------------------------------------------

def _match(pat, t, bij: dict[Var, Var], rev: dict[Var, Var]) -> Iterator[None]:
    """Yield once for each extension of the variable bijection `bij` (from
    pattern to target variables; `rev` is its inverse) under which `pat`
    equals `t`: terms, formulas and atoms field by field, sequences in
    order, the summands of a linear term in any order.

    Each extension is made in place and undone before the next is sought,
    so matchers run one inside another backtrack into each other's choices:
    a pairing of summands is revised when a later part of the clause fails.
    """
    if isinstance(pat, Var):
        if pat in bij:
            if bij[pat] == t:
                yield
        elif isinstance(t, Var) and t not in rev and pat.sort == t.sort:
            bij[pat], rev[t] = t, pat
            yield
            del bij[pat], rev[t]
    elif isinstance(pat, tuple):
        if isinstance(t, tuple) and len(pat) == len(t):
            yield from _match_seq(pat, t, 0, bij, rev)
    elif type(pat) is type(t):
        if isinstance(pat, LinExpr):
            if pat.const == t.const:
                yield from _match_multiset(pat.coeffs, t.coeffs, bij, rev)
        elif isinstance(pat, (Term, Formula, Atom)):
            fields = type(pat).__match_args__
            yield from _match_seq(tuple(getattr(pat, f) for f in fields),
                                  tuple(getattr(t, f) for f in fields),
                                  0, bij, rev)
        elif pat == t:
            yield


def _match_seq(pats: tuple, ts: tuple, i: int,
               bij: dict[Var, Var], rev: dict[Var, Var]) -> Iterator[None]:
    """`_match` on equally long sequences from position i on."""
    if i == len(pats):
        yield
        return
    for _ in _match(pats[i], ts[i], bij, rev):
        yield from _match_seq(pats, ts, i + 1, bij, rev)


def _match_multiset(pats: tuple, ts: tuple,
                    bij: dict[Var, Var], rev: dict[Var, Var]) -> Iterator[None]:
    """`_match` on sequences taken as multisets."""
    if not pats:
        if not ts:
            yield
        return
    for i, t in enumerate(ts):
        for _ in _match(pats[0], t, bij, rev):
            yield from _match_multiset(pats[1:], ts[:i] + ts[i + 1:], bij, rev)


def variant_of(c1: Clause, c2: Clause, ordered_body: bool = False) -> bool:
    """True iff c1 and c2 are equal modulo a variable bijection.

    Body atoms are matched as a multiset unless ordered_body is set; the
    constraint is compared structurally (same And-flattened shape), up to
    the order of the summands of each linear term.
    """
    bij: dict[Var, Var] = {}
    rev: dict[Var, Var] = {}
    body = _match if ordered_body else _match_multiset
    return any(True for _ in _match((c1.head, c1.constraint),
                                    (c2.head, c2.constraint), bij, rev)
               for _ in body(tuple(c1.body), tuple(c2.body), bij, rev))


# ---------------------------------------------------------------------------
# Pretty printing (canonical per-clause display names)
# ---------------------------------------------------------------------------

def _display_names() -> Iterator[str]:
    for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        yield c
    for n in itertools.count(1):
        for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            yield f"{c}{n}"


def display_names(x) -> dict[Var, str]:
    """Display names A, B, ..., Z, A1, ... for the variables of x (a term,
    formula, atom, clause or list), given in `vars_in_order`; the dict lists
    them in that order. The printers take it instead of a renamed copy."""
    return dict(zip(vars_in_order(x), _display_names()))


def display_renaming(x) -> Subst:
    """`display_names` as a renaming, for a caller that needs the renamed
    value itself."""
    return Subst({v: Var(n, v.sort) for v, n in display_names(x).items()})


def named_summands(t: LinExpr, names: dict[Var, str] | None
                   ) -> list[tuple[str, int]]:
    """t's summands as (variable name, coefficient), in printing order: t's
    own, or under `names` the order of those names, which `lin` gives the
    renamed term ("A1" before "B")."""
    if names is None:
        return [(v.name, a) for v, a in t.coeffs]
    return sorted((names[v], a) for v, a in t.coeffs)


def pretty_term(t: Term, names: dict[Var, str] | None = None) -> str:
    """t in the surface syntax, each variable by its name in `names` if
    given, else by its own."""
    if isinstance(t, Var):
        return t.name if names is None else names[t]
    if isinstance(t, LinExpr):
        parts = [n if a == 1 else f"-{n}" if a == -1 else f"{a}*{n}"
                 for n, a in named_summands(t, names)]
        if t.const != 0 or not parts:
            parts.append(str(t.const))
        return parts[0] + "".join(p if p.startswith("-") else "+" + p
                                  for p in parts[1:])
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, Ctor):
        if t.ctor == "[]":
            return "[]"
        if t.ctor == "cons":
            items: list[str] = []
            cur: Term = t
            while isinstance(cur, Ctor) and cur.ctor == "cons":
                items.append(pretty_term(cur.args[0], names))
                cur = cur.args[1]
            if isinstance(cur, Ctor) and cur.ctor == "[]":
                return "[" + ",".join(items) + "]"
            return "[" + ",".join(items) + "|" + pretty_term(cur, names) + "]"
        if not t.args:
            return t.ctor
        return f"{t.ctor}({','.join(pretty_term(a, names) for a in t.args)})"
    if isinstance(t, TermIte):
        return (f"ite({pretty_formula(t.cond, names)},"
                f"{pretty_term(t.then, names)},{pretty_term(t.els, names)})")
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    raise TypeError(f"unknown term {t!r}")


# the formulas that print without parentheses as an operand
_UNPARENTHESIZED = (FTrue, FFalse, FVar, FComp, FEq, FNot, FIte)


def _operand(f: Formula, names: dict[Var, str] | None) -> str:
    text = pretty_formula(f, names)
    return text if isinstance(f, _UNPARENTHESIZED) else f"({text})"


def pretty_formula(f: Formula, names: dict[Var, str] | None = None) -> str:
    """f in the surface syntax, each variable named as by `pretty_term`."""
    if isinstance(f, FComp):
        return f"{pretty_term(f.lhs, names)}{f.rel}{pretty_term(f.rhs, names)}"
    if isinstance(f, FEq):
        return f"{pretty_term(f.lhs, names)}={pretty_term(f.rhs, names)}"
    if isinstance(f, FVar):
        return f.var.name if names is None else names[f.var]
    if isinstance(f, FNot):
        return f"~{_operand(f.arg, names)}"
    if isinstance(f, FAnd):
        return " & ".join(_operand(a, names) for a in f.args)
    if isinstance(f, FOr):
        return " \\/ ".join(_operand(a, names) for a in f.args)
    if isinstance(f, FImp):
        return f"{_operand(f.lhs, names)} => {_operand(f.rhs, names)}"
    if isinstance(f, FIff):
        return f"{_operand(f.lhs, names)} <=> {_operand(f.rhs, names)}"
    if isinstance(f, FIte):
        return (f"ite({pretty_formula(f.cond, names)},"
                f"{pretty_formula(f.then, names)},{pretty_formula(f.els, names)})")
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    raise TypeError(f"unknown formula {f!r}")


def pretty_atom(a: Atom, names: dict[Var, str] | None = None) -> str:
    """a in the surface syntax, each variable named as by `pretty_term`."""
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(pretty_term(t, names) for t in a.args)})"


def pretty_clause(c: Clause) -> str:
    """c in the surface syntax, under its `display_names`."""
    names = display_names(c)
    head = "false" if c.head is None else pretty_atom(c.head, names)
    parts = [pretty_formula(f, names) for f in conjuncts(c.constraint)]
    parts += [pretty_atom(a, names) for a in c.body]
    if not parts:
        return f"{head}."
    return f"{head} :- {', '.join(parts)}."
