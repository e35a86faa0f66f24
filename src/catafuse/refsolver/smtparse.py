"""Reader for the SMT-LIB 2 dialect this package emits.

Covers declare-datatypes / declare-fun / declare-const / assert with the
boolean connectives, linear integer arithmetic, ite, datatype constructors,
and (for Horn scripts) top-level forall. This is deliberately not a general
SMT-LIB frontend; anything outside the emitted dialect raises UnsupportedSmt.
"""

from __future__ import annotations

from ..syntax import (
    BOOL, INT, Atom, BoolConst, Clause, Ctor, CtorDecl, FComp, FIff,
    FImp, FIte, FVar, FALSE, Formula, IntConst, Sort, SortDef, SortTable,
    Term, TermIte, TRUE, Var, eq_of, lin_sum, mk_and, mk_not, mk_or,
)


class UnsupportedSmt(Exception):
    pass


def tokenize_sexp(text: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(ch)
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            toks.append(text[i:j + 1])
            i = j + 1
        elif ch == '"':
            j = text.index('"', i + 1)
            toks.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"':
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def parse_sexps(text: str):
    toks = tokenize_sexp(text)
    out, stack = [], []
    cur: list = out
    for t in toks:
        if t == "(":
            new: list = []
            cur.append(new)
            stack.append(cur)
            cur = new
        elif t == ")":
            if not stack:
                raise UnsupportedSmt("unbalanced ')'")
            cur = stack.pop()
        else:
            cur.append(t)
    if stack:
        raise UnsupportedSmt("unbalanced '('")
    return out


def balanced(text: str) -> bool:
    depth = 0
    in_bar = in_str = in_comment = False
    for ch in text:
        if in_bar:
            in_bar = ch != "|"
        elif in_str:
            in_str = ch != '"'
        elif in_comment:
            in_comment = ch != "\n"
        elif ch == ";":
            in_comment = True
        elif ch == "|":
            in_bar = True
        elif ch == '"':
            in_str = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
    return depth <= 0 and not in_bar and not in_str


def commands(lines):
    """The commands on `lines`, each once its last line is read, and an
    UnsupportedSmt for lines that do not parse: a session's one reader."""
    buf = ""
    for line in lines:
        buf += line
        if balanced(buf):
            try:
                yield from parse_sexps(buf)
            except UnsupportedSmt as e:
                yield e
            buf = ""
    if buf:
        yield UnsupportedSmt("input ends inside a command")


def _finite(sort: Sort, new: dict[Sort, SortDef], known: SortTable,
            seen: frozenset = frozenset()) -> bool:
    """Whether `sort` has finitely many values: no Int argument and no
    recursion anywhere below it."""
    if sort == INT or sort in seen:
        return False
    if sort == BOOL:
        return True
    sd = new.get(sort) or known.resolve(sort)
    return all(_finite(a, new, known, seen | {sort})
               for c in sd.ctors for a in c.arg_sorts)


class SmtContext:
    """Declared sorts, constructors, constants, and predicates."""

    def __init__(self) -> None:
        self.sorts = SortTable()
        self.sort_names: dict[str, Sort] = {"Int": INT, "Bool": BOOL}
        self.ctors: dict[str, tuple[Sort, CtorDecl]] = {}
        self.consts: dict[str, Var] = {}
        self.preds: dict[str, tuple[Sort, ...]] = {}

    def sort(self, name) -> Sort:
        if isinstance(name, list):
            raise UnsupportedSmt(f"parametric sort {name}")
        s = self.sort_names.get(name)
        if s is None:
            raise UnsupportedSmt(f"unknown sort {name}")
        return s

    def declare_datatypes(self, names, bodies) -> None:
        decls = []
        for spec in names:
            nm, arity = spec[0], spec[1]
            if arity != "0":
                raise UnsupportedSmt("parametric datatypes")
            decls.append(Sort(nm))
        saved = dict(self.sort_names)
        self.sort_names.update((s.name, s) for s in decls)
        try:
            defs = {sort: SortDef(sort, tuple(
                        CtorDecl(c[0], tuple(self.sort(sel[1]) for sel in c[1:]))
                        for c in ctors))
                    for sort, ctors in zip(decls, bodies)}
            for sort in decls:
                if _finite(sort, defs, self.sorts):
                    # the QF core takes every datatype position as able to
                    # differ, which a finite sort's values cannot always do
                    raise UnsupportedSmt(f"finite datatype {sort}")
        except UnsupportedSmt:
            self.sort_names = saved
            raise
        for sd in defs.values():
            for c in sd.ctors:
                self.ctors[c.name] = (sd.sort, c)
            self.sorts.add(sd)

    def declare_fun(self, name, arg_sorts, ret) -> None:
        if not arg_sorts:
            self.consts[name] = Var(name, self.sort(ret))
        else:
            if self.sort(ret) != BOOL:
                raise UnsupportedSmt(f"non-predicate function {name}")
            self.preds[name] = tuple(self.sort(a) for a in arg_sorts)

    # ----- expression translation -------------------------------------------

    def sort_of(self, e, env: dict[str, Var]) -> Sort:
        if isinstance(e, str):
            if e in env:
                return env[e].sort
            if e in self.consts:
                return self.consts[e].sort
            if e in self.ctors:
                return self.ctors[e][0]
            if e in ("true", "false"):
                return BOOL
            if e.lstrip("-").isdigit():
                return INT
            raise UnsupportedSmt(f"unknown symbol {e}")
        op = e[0]
        if op in ("+", "-", "*"):
            return INT
        if op in ("and", "or", "not", "=>", "=", "<", "<=", ">", ">="):
            return BOOL
        if op == "ite":
            return self.sort_of(e[2], env)
        if op in self.ctors:
            return self.ctors[op][0]
        if op in self.preds:
            return BOOL
        raise UnsupportedSmt(f"unknown operator {op}")

    def to_term(self, e, env: dict[str, Var]) -> Term:
        if isinstance(e, str):
            if e in env:
                return env[e]
            if e in self.consts:
                return self.consts[e]
            if e in self.ctors:
                sort, cd = self.ctors[e]
                if cd.arg_sorts:
                    raise UnsupportedSmt(f"constructor {e} needs arguments")
                return Ctor(sort, e, ())
            if e == "true":
                return BoolConst(True)
            if e == "false":
                return BoolConst(False)
            if e.isdigit():
                return IntConst(int(e))
            raise UnsupportedSmt(f"unknown symbol {e}")
        op = e[0]
        if op in ("+", "-"):
            ts = [self.to_term(a, env) for a in e[1:]]
            if op == "-" and len(ts) == 1:
                return _lin_sum([(-1, ts[0])])
            sgn = 1 if op == "+" else -1
            return _lin_sum([(1, ts[0])] + [(sgn, t) for t in ts[1:]])
        if op == "*":
            if len(e) != 3:
                raise UnsupportedSmt("n-ary *")
            a = self.to_term(e[1], env)
            b = self.to_term(e[2], env)
            if isinstance(a, IntConst):
                return _lin_sum([(a.value, b)])
            if isinstance(b, IntConst):
                return _lin_sum([(b.value, a)])
            raise UnsupportedSmt("non-linear term")
        if op == "ite":
            cond = self.to_formula(e[1], env)
            t = self.to_term(e[2], env)
            u = self.to_term(e[3], env)
            return TermIte(cond, t, u)
        if op in self.ctors:
            sort, cd = self.ctors[op]
            args = tuple(self.to_term(a, env) for a in e[1:])
            return Ctor(sort, op, args)
        raise UnsupportedSmt(f"cannot read term {e}")

    def to_formula(self, e, env: dict[str, Var],
                   check_only: bool = False) -> Formula:
        if isinstance(e, str):
            if e == "true":
                return TRUE
            if e == "false":
                return FALSE
            v = env.get(e) or self.consts.get(e)
            if v is not None and v.sort == BOOL:
                return FVar(v)
            raise UnsupportedSmt(f"expected boolean, got {e}")
        op = e[0]
        if check_only and op in ("forall", "exists"):
            env2 = dict(env)
            for name, srt in e[1]:
                env2[name] = Var(name, self.sort(srt))
            self.to_formula(e[2], env2, check_only=True)
            return TRUE
        if check_only and op in self.preds:
            sorts = self.preds[op]
            if len(sorts) != len(e) - 1:
                raise UnsupportedSmt(f"arity mismatch for {op}")
            for a, s in zip(e[1:], sorts):
                got = self.sort_of(a, env)
                if got != s:
                    raise UnsupportedSmt(
                        f"ill-sorted argument of {op}: {got} vs {s}")
            return TRUE
        if op == "and":
            return mk_and(*(self.to_formula(a, env, check_only) for a in e[1:]))
        if op == "or":
            return mk_or(*(self.to_formula(a, env, check_only) for a in e[1:]))
        if op == "not":
            return mk_not(self.to_formula(e[1], env, check_only))
        if op == "=>":
            out = self.to_formula(e[-1], env, check_only)
            for a in reversed(e[1:-1]):
                out = FImp(self.to_formula(a, env, check_only), out)
            return out
        if op == "ite":
            return FIte(self.to_formula(e[1], env, check_only),
                        self.to_formula(e[2], env, check_only),
                        self.to_formula(e[3], env, check_only))
        if op == "=":
            s = self.sort_of(e[1], env)
            if s == BOOL:
                return FIff(self.to_formula(e[1], env, check_only),
                            self.to_formula(e[2], env, check_only))
            lhs = self.to_term(e[1], env)
            rhs = self.to_term(e[2], env)
            return eq_of(lhs, rhs, s)
        if op in ("<", "<=", ">", ">="):
            rel = {"<": "<", "<=": "=<", ">": ">", ">=": ">="}[op]
            return FComp(rel, self.to_term(e[1], env), self.to_term(e[2], env))
        raise UnsupportedSmt(f"cannot read formula {e}")

    # ----- Horn clause extraction -------------------------------------------

    def to_clause(self, e, env: dict[str, Var] | None = None) -> Clause:
        env = dict(env or {})
        if isinstance(e, list) and e and e[0] == "forall":
            for name, srt in e[1]:
                env[name] = Var(name, self.sort(srt))
            return self.to_clause(e[2], env)
        if isinstance(e, list) and e and e[0] == "=>":
            body, head = e[1], e[2]
            items = body[1:] if isinstance(body, list) and body and body[0] == "and" \
                else [body]
        else:
            items, head = [], e
        atoms: list[Atom] = []
        constraints: list[Formula] = []
        for item in items:
            if isinstance(item, list) and item and item[0] in self.preds:
                atoms.append(self._atom(item, env))
            elif isinstance(item, str) and item in self.preds:
                atoms.append(Atom(item, ()))
            else:
                constraints.append(self.to_formula(item, env))
        if head == "false":
            h = None
        elif isinstance(head, list) and head and head[0] in self.preds:
            h = self._atom(head, env)
        elif isinstance(head, str) and head in self.preds:
            h = Atom(head, ())
        else:
            raise UnsupportedSmt(f"clause head {head} is not an atom or false")
        return Clause(h, mk_and(*constraints), tuple(atoms))

    def _atom(self, e, env) -> Atom:
        return Atom(e[0], tuple(self.to_term(a, env) for a in e[1:]))


def _lin_sum(parts: list[tuple[int, Term]]) -> Term:
    for _, t in parts:
        if isinstance(t, Var) and t.sort != INT:
            raise UnsupportedSmt(f"{t.name} of sort {t.sort} inside arithmetic")
    try:
        return lin_sum(parts)
    except TypeError as e:
        if any(isinstance(t, TermIte) for _, t in parts):
            raise UnsupportedSmt("ite inside arithmetic") from None
        raise UnsupportedSmt(str(e)) from None
