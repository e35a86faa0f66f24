"""Parser for the clause surface format.

The format is Prolog-flavoured:

    % comments run to end of line
    sort item = box(int) | empty.
    pred append(list(int), list(int), list(int)).
    cata ordered(in:, adt: list(int), out: bool).

    append([],Ys,Ys).
    append([X|Xs],Ys,[X|Zs]) :- append(Xs,Ys,Zs).
    false :- ~(B1 => B2), ordered(Xs,B1), ordered(Zs,B2), ins_sort(Xs,Ys,Zs).

Variables start with an uppercase letter or '_'. Constraint operators are
~  &  \\/  =>  <=>  =  <  =<  >=  >  with ite(c,t,e); '=' is resolved by sort
(iff on bool, LIA equality on int, term equality on ADTs). Bodies are
normalized at parse time: every body atom gets distinct fresh variable
arguments, displaced terms move into equality constraints. Heads keep their
constructor patterns.
"""

from __future__ import annotations

from .syntax import (
    BOOL, INT, Atom, BoolConst, Clause, Ctor, Formula, IntConst, NameGen,
    PRED_CATA, PRED_PROGRAM, PredDecl, Problem, Sort, SortDef, SortTable,
    CtorDecl, FALSE, Term, TermIte, TRUE, Var, eq_of, lin_sum, mk_and,
    mk_not, mk_or, FComp, FIff, FImp, FIte, FVar, list_def, term_sort,
    tree_def, value_class,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = [":-", "<=>", "=>", "=<", ">=", "\\/", "(", ")", "[", "]", "|",
          ",", ".", "~", "&", "=", "<", ">", "+", "-", "*"]
# the punctuation each character can start, longest first as in _PUNCT
_PUNCT_AT = {p[0]: [q for q in _PUNCT if q[0] == p[0]] for p in _PUNCT}


@value_class
class Tok:
    kind: str  # id | varid | int | punct | kw
    text: str
    line: int
    col: int


_KEYWORDS = {"pred", "cata", "sort", "false", "true", "ite"}


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # 'in:' / 'adt:' / 'out:' group keywords in cata declarations
            if j < n and text[j] == ":" and word in ("in", "adt", "out") \
                    and not text[j:j + 2] == ":-":
                toks.append(Tok("kw", word + ":", line, col))
                j += 1
            elif word in _KEYWORDS:
                toks.append(Tok("kw", word, line, col))
            elif word[0].isupper() or word[0] == "_":
                toks.append(Tok("varid", word, line, col))
            else:
                toks.append(Tok("id", word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT_AT.get(ch, ()):
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Raw expression AST (sorts resolved in a second pass)
# ---------------------------------------------------------------------------

@value_class
class Node:
    kind: str
    text: str = ""
    kids: tuple["Node", ...] = ()
    line: int = 0
    col: int = 0


class _Parser:
    def __init__(self, toks: list[Tok]) -> None:
        self.toks = toks
        self.i = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # expression grammar, loosest first -------------------------------------

    def expr(self) -> Node:
        return self.iff()

    def iff(self) -> Node:
        lhs = self.imp()
        if self.at("<=>"):
            t = self.next()
            return Node("iff", kids=(lhs, self.iff()), line=t.line, col=t.col)
        return lhs

    def imp(self) -> Node:
        lhs = self.disj()
        if self.at("=>"):
            t = self.next()
            return Node("imp", kids=(lhs, self.imp()), line=t.line, col=t.col)
        return lhs

    def disj(self) -> Node:
        lhs = self.conj()
        while self.at("\\/"):
            t = self.next()
            lhs = Node("or", kids=(lhs, self.conj()), line=t.line, col=t.col)
        return lhs

    def conj(self) -> Node:
        lhs = self.unary()
        while self.at("&"):
            t = self.next()
            lhs = Node("and", kids=(lhs, self.unary()), line=t.line, col=t.col)
        return lhs

    def unary(self) -> Node:
        if self.at("~"):
            t = self.next()
            return Node("not", kids=(self.unary(),), line=t.line, col=t.col)
        return self.cmp()

    def cmp(self) -> Node:
        lhs = self.addsub()
        if self.peek().text in ("=", "<", "=<", ">=", ">"):
            t = self.next()
            return Node("cmp", t.text, (lhs, self.addsub()), t.line, t.col)
        return lhs

    def addsub(self) -> Node:
        lhs = self.muls()
        while self.peek().text in ("+", "-"):
            t = self.next()
            lhs = Node("add" if t.text == "+" else "sub",
                       kids=(lhs, self.muls()), line=t.line, col=t.col)
        return lhs

    def muls(self) -> Node:
        lhs = self.primary()
        while self.at("*"):
            t = self.next()
            lhs = Node("mul", kids=(lhs, self.primary()), line=t.line, col=t.col)
        return lhs

    def primary(self) -> Node:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Node("int", t.text, line=t.line, col=t.col)
        if t.text == "-":
            self.next()
            return Node("neg", kids=(self.primary(),), line=t.line, col=t.col)
        if t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.text == "[":
            return self.list_term()
        if t.kind == "varid":
            self.next()
            return Node("var", t.text, line=t.line, col=t.col)
        if t.text == "ite":
            self.next()
            self.expect("(")
            c = self.expr()
            self.expect(",")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Node("ite", kids=(c, a, b), line=t.line, col=t.col)
        if t.text == "true" or t.text == "false":
            self.next()
            return Node(t.text, line=t.line, col=t.col)
        if t.kind == "id":
            self.next()
            if self.at("("):
                self.next()
                args = [self.expr()]
                while self.at(","):
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return Node("app", t.text, tuple(args), t.line, t.col)
            return Node("app", t.text, (), t.line, t.col)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def list_term(self) -> Node:
        t = self.expect("[")
        items: list[Node] = []
        tail: Node | None = None
        if not self.at("]"):
            items.append(self.expr())
            while self.at(","):
                self.next()
                items.append(self.expr())
            if self.at("|"):
                self.next()
                tail = self.expr()
        self.expect("]")
        kids = tuple(items) + ((tail,) if tail is not None else ())
        return Node("list" if tail is None else "listtail", kids=kids,
                    line=t.line, col=t.col)


# ---------------------------------------------------------------------------
# Sort resolution
# ---------------------------------------------------------------------------

class _ClauseEnv:
    """Per-clause variable sorts plus the constructor index of the problem."""

    def __init__(self, pb: "_Builder") -> None:
        self.pb = pb
        self.vars: dict[str, Sort] = {}

    def var(self, name: str, sort: Sort | None, line: int, col: int) -> Var:
        have = self.vars.get(name)
        if sort is None:
            if have is None:
                raise ParseError(f"cannot infer sort of variable {name}", line, col)
            return Var(name, have)
        if have is None:
            self.vars[name] = sort
        elif have != sort:
            raise ParseError(
                f"variable {name} used at sorts {have} and {sort}", line, col)
        return Var(name, self.vars[name])


class _Builder:
    def __init__(self) -> None:
        self.sorts = SortTable()
        self.preds: dict[str, PredDecl] = {}
        self.ctor_sort: dict[str, SortDef] = {}
        self.gen = NameGen("F")

    def register_sortdef(self, sd: SortDef) -> None:
        for c in sd.ctors:
            if c.name in self.ctor_sort:
                raise ParseError(f"constructor {c.name} declared twice")
            self.ctor_sort[c.name] = sd

    def ensure_sort(self, s: Sort, line: int = 0, col: int = 0) -> Sort:
        if s.is_basic:
            return s
        try:
            sd = self.sorts.resolve(s)
        except KeyError:
            raise ParseError(f"unknown sort {s}", line, col) from None
        for c in sd.ctors:
            if c.name not in self.ctor_sort:
                self.register_sortdef(sd)
                break
        return s

    # term/formula resolution ------------------------------------------------

    def to_term(self, n: Node, expect: Sort | None, env: _ClauseEnv) -> Term:
        if n.kind == "var":
            return env.var(n.text, expect, n.line, n.col)
        if n.kind == "int":
            self._want(expect, INT, n)
            return IntConst(int(n.text))
        if n.kind == "neg":
            self._want(expect, INT, n)
            return _lin_sum([(-1, self.to_term(n.kids[0], INT, env))], n)
        if n.kind in ("add", "sub", "mul"):
            self._want(expect, INT, n)
            return self._arith(n, env)
        if n.kind in ("true", "false"):
            self._want(expect, BOOL, n)
            return BoolConst(n.kind == "true")
        if n.kind == "ite":
            c = self.to_formula(n.kids[0], env)
            a = self.to_term(n.kids[1], expect, env)
            b = self.to_term(n.kids[2], term_sort(a), env)
            return TermIte(c, a, b)
        if n.kind in ("list", "listtail"):
            if expect is None or not expect.name.startswith("list("):
                raise ParseError("list syntax needs a list-sorted context",
                                 n.line, n.col)
            self.ensure_sort(expect, n.line, n.col)
            elem = Sort(expect.name[5:-1])
            if n.kind == "listtail":
                tail = self.to_term(n.kids[-1], expect, env)
                items = n.kids[:-1]
            else:
                tail = Ctor(expect, "[]", ())
                items = n.kids
            out = tail
            for item in reversed(items):
                out = Ctor(expect, "cons", (self.to_term(item, elem, env), out))
            return out
        if n.kind == "app":
            sd = self.ctor_sort.get(n.text)
            if sd is None:
                # give list/tree builtins a chance to self-register
                if expect is not None and expect.is_adt:
                    self.ensure_sort(expect, n.line, n.col)
                    sd = self.ctor_sort.get(n.text)
            if sd is None:
                raise ParseError(f"unknown constructor or function {n.text!r}",
                                 n.line, n.col)
            self._want(expect, sd.sort, n)
            decl = sd.ctor(n.text)
            if len(decl.arg_sorts) != len(n.kids):
                raise ParseError(
                    f"constructor {n.text} expects {len(decl.arg_sorts)} args",
                    n.line, n.col)
            args = tuple(self.to_term(k, s, env)
                         for k, s in zip(n.kids, decl.arg_sorts))
            return Ctor(sd.sort, n.text, args)
        if n.kind in ("iff", "imp", "or", "and", "not", "cmp"):
            self._want(expect, BOOL, n)
            f = self.to_formula(n, env)
            return _formula_to_term(f, n)
        raise ParseError(f"cannot use {n.kind} as a term", n.line, n.col)

    def _arith(self, n: Node, env: _ClauseEnv) -> Term:
        a = self.to_term(n.kids[0], INT, env)
        b = self.to_term(n.kids[1], INT, env)
        if n.kind != "mul":
            return _lin_sum([(1, a), (1 if n.kind == "add" else -1, b)], n)
        if isinstance(a, IntConst):
            return _lin_sum([(a.value, b)], n)
        if isinstance(b, IntConst):
            return _lin_sum([(b.value, a)], n)
        raise ParseError("non-linear product", n.line, n.col)

    def to_formula(self, n: Node, env: _ClauseEnv) -> Formula:
        if n.kind == "true":
            return TRUE
        if n.kind == "false":
            return FALSE
        if n.kind == "var":
            return FVar(env.var(n.text, BOOL, n.line, n.col))
        if n.kind == "not":
            return mk_not(self.to_formula(n.kids[0], env))
        if n.kind == "and":
            return mk_and(self.to_formula(n.kids[0], env),
                          self.to_formula(n.kids[1], env))
        if n.kind == "or":
            return mk_or(self.to_formula(n.kids[0], env),
                         self.to_formula(n.kids[1], env))
        if n.kind == "imp":
            return FImp(self.to_formula(n.kids[0], env),
                        self.to_formula(n.kids[1], env))
        if n.kind == "iff":
            return FIff(self.to_formula(n.kids[0], env),
                        self.to_formula(n.kids[1], env))
        if n.kind == "ite":
            return FIte(self.to_formula(n.kids[0], env),
                        self.to_formula(n.kids[1], env),
                        self.to_formula(n.kids[2], env))
        if n.kind == "cmp":
            return self._cmp(n, env)
        raise ParseError(f"expected a constraint, found {n.kind}", n.line, n.col)

    def _cmp(self, n: Node, env: _ClauseEnv) -> Formula:
        if n.text != "=":
            lhs = self.to_term(n.kids[0], INT, env)
            rhs = self.to_term(n.kids[1], INT, env)
            return FComp(n.text, lhs, rhs)
        sort = self._eq_sort(n, env)
        if sort == BOOL:
            return FIff(self.to_formula(n.kids[0], env),
                        self.to_formula(n.kids[1], env))
        lhs = self.to_term(n.kids[0], sort, env)
        rhs = self.to_term(n.kids[1], sort, env)
        return eq_of(lhs, rhs, sort)

    def _eq_sort(self, n: Node, env: _ClauseEnv) -> Sort:
        for k in n.kids:
            s = self._sort_hint(k, env)
            if s is not None:
                return s
        raise ParseError("cannot infer the sort of '='", n.line, n.col)

    def _sort_hint(self, n: Node, env: _ClauseEnv) -> Sort | None:
        if n.kind == "var":
            return env.vars.get(n.text)
        if n.kind in ("int", "add", "sub", "mul", "neg"):
            return INT
        if n.kind in ("true", "false", "and", "or", "imp", "iff", "not", "cmp"):
            return BOOL
        if n.kind == "app":
            sd = self.ctor_sort.get(n.text)
            return sd.sort if sd else None
        if n.kind == "ite":
            return self._sort_hint(n.kids[1], env) or self._sort_hint(n.kids[2], env)
        return None

    @staticmethod
    def _want(expect: Sort | None, actual: Sort, n: Node) -> None:
        if expect is not None and expect != actual:
            raise ParseError(f"sort mismatch: expected {expect}, found {actual}",
                             n.line, n.col)


def _lin_sum(parts: list[tuple[int, Term]], n: Node) -> Term:
    try:
        return lin_sum(parts)
    except TypeError:
        raise ParseError("non-linear arithmetic term", n.line, n.col) from None


def _formula_to_term(f: Formula, n: Node) -> Term:
    if isinstance(f, FVar):
        return f.var
    raise ParseError("boolean expression not allowed in term position",
                     n.line, n.col)


# ---------------------------------------------------------------------------
# Top-level parse
# ---------------------------------------------------------------------------

def parse_problem(text: str) -> Problem:
    """Parse, sort-check, and normalize a surface-format problem."""
    b = _Builder()
    p = _Parser(tokenize(text))
    clause_items: list[tuple[Node | None, list[Node], Tok]] = []

    while p.peek().kind != "eof":
        t = p.peek()
        if t.text == "pred":
            _parse_pred(p, b)
        elif t.text == "cata":
            _parse_cata(p, b)
        elif t.text == "sort":
            _parse_sort(p, b)
        else:
            clause_items.append(_parse_clause_raw(p))

    problem = Problem(b.sorts, b.preds, [], [], [])
    for head, body, tok in clause_items:
        c = _resolve_clause(b, head, body, tok)
        if c.is_query:
            problem.queries.append(c)
        elif b.preds[c.head.pred].kind == PRED_CATA:
            problem.properties.append(c)
        else:
            problem.program.append(c)
    _check_query_uniqueness(b, problem)
    return problem


def _parse_sortname(p: _Parser, b: _Builder) -> Sort:
    t = p.next()
    if t.text in ("int", "bool"):
        return INT if t.text == "int" else BOOL
    if t.text in ("list", "tree") and p.at("("):
        p.next()
        inner = _parse_sortname(p, b)
        p.expect(")")
        s = Sort(f"{t.text}({inner})")
        return b.ensure_sort(s, t.line, t.col)
    if t.kind == "id":
        return b.ensure_sort(Sort(t.text), t.line, t.col)
    raise ParseError(f"expected a sort, found {t.text!r}", t.line, t.col)


# Names the SMT-LIB output cannot carry: its reserved words and the Core
# and Ints symbols that a declared name can spell.
_SMT_RESERVED = frozenset((
    "and", "or", "not", "xor", "distinct", "div", "mod", "abs", "as",
    "exists", "forall", "let", "match", "par", "assert", "echo", "exit",
    "pop", "push", "reset"))
_BUILTIN_CTORS = frozenset(c.name for sd in (list_def(INT), tree_def(INT))
                           for c in sd.ctors)


def _smt_name(p: _Parser, what: str) -> Tok:
    """The name a declaration introduces, which the SMT-LIB output carries
    as it is."""
    name = p.next()
    if name.kind != "id":
        raise ParseError(f"{what} name expected", name.line, name.col)
    if name.text in _SMT_RESERVED:
        raise ParseError(f"{what} name {name.text} is reserved in SMT-LIB",
                         name.line, name.col)
    return name


def _declared_name(p: _Parser, b: _Builder, what: str) -> Tok:
    """The name a `pred` or `cata` declaration introduces: new, no
    constructor's name, and outside the true_* namespace of the
    transformer's structural carriers."""
    name = _smt_name(p, what)
    if name.text in b.preds:
        raise ParseError(f"predicate {name.text} declared twice",
                         name.line, name.col)
    if name.text in b.ctor_sort or name.text in _BUILTIN_CTORS:
        raise ParseError(f"{what} {name.text} has a constructor's name",
                         name.line, name.col)
    if name.text.startswith("true_"):
        raise ParseError("the true_* namespace is reserved", name.line, name.col)
    return name


def _parse_pred(p: _Parser, b: _Builder) -> None:
    p.expect("pred")
    name = _declared_name(p, b, "predicate")
    p.expect("(")
    sorts: list[Sort] = []
    if not p.at(")"):
        sorts.append(_parse_sortname(p, b))
        while p.at(","):
            p.next()
            sorts.append(_parse_sortname(p, b))
    p.expect(")")
    p.expect(".")
    b.preds[name.text] = PredDecl(name.text, tuple(sorts), PRED_PROGRAM)


def _parse_cata(p: _Parser, b: _Builder) -> None:
    p.expect("cata")
    name = _declared_name(p, b, "catamorphism")
    p.expect("(")
    p.expect("in:")
    ins: list[Sort] = []
    while not p.at(","):
        ins.append(_parse_sortname(p, b))
        if p.at(","):
            break
    p.expect(",")
    p.expect("adt:")
    adt = _parse_sortname(p, b)
    p.expect(",")
    p.expect("out:")
    outs: list[Sort] = [_parse_sortname(p, b)]
    while p.at(","):
        p.next()
        outs.append(_parse_sortname(p, b))
    p.expect(")")
    p.expect(".")
    if not adt.is_adt:
        raise ParseError(f"cata {name.text}: adt argument must be an ADT sort",
                         name.line, name.col)
    for s in ins + outs:
        if not s.is_basic:
            raise ParseError(
                f"cata {name.text}: in/out sorts must be basic", name.line, name.col)
    arg_sorts = tuple(ins) + (adt,) + tuple(outs)
    k = len(ins)
    b.preds[name.text] = PredDecl(
        name.text, arg_sorts, PRED_CATA,
        in_idx=tuple(range(k)), adt_idx=k,
        out_idx=tuple(range(k + 1, len(arg_sorts))))


def _parse_sort(p: _Parser, b: _Builder) -> None:
    p.expect("sort")
    name = _smt_name(p, "sort")
    if name.text in ("int", "bool"):
        raise ParseError(f"sort {name.text} is builtin", name.line, name.col)
    p.expect("=")
    ctors: list[CtorDecl] = []
    sort = Sort(name.text)
    while True:
        cn = _smt_name(p, "constructor")
        if cn.text in b.preds:
            raise ParseError(f"constructor {cn.text} has a predicate's name",
                             cn.line, cn.col)
        args: list[Sort] = []
        if p.at("("):
            p.next()
            args.append(_parse_sortname_or_self(p, b, sort))
            while p.at(","):
                p.next()
                args.append(_parse_sortname_or_self(p, b, sort))
            p.expect(")")
        ctors.append(CtorDecl(cn.text, tuple(args)))
        if p.at("|"):
            p.next()
            continue
        break
    p.expect(".")
    if not ctors:
        raise ParseError(f"sort {name.text} needs at least one constructor",
                         name.line, name.col)
    sd = SortDef(sort, tuple(ctors))
    b.sorts.add(sd)
    b.register_sortdef(sd)


def _parse_sortname_or_self(p: _Parser, b: _Builder, self_sort: Sort) -> Sort:
    t = p.peek()
    if t.kind == "id" and t.text == self_sort.name:
        p.next()
        return self_sort
    return _parse_sortname(p, b)


def _parse_clause_raw(p: _Parser) -> tuple[Node | None, list[Node], Tok]:
    tok = p.peek()
    if tok.text == "false":
        p.next()
        head = None
    else:
        head = p.primary()
        if head.kind != "app":
            raise ParseError("clause head must be an atom or 'false'",
                             tok.line, tok.col)
    body: list[Node] = []
    if p.at(":-"):
        p.next()
        body.append(p.expr())
        while p.at(","):
            p.next()
            body.append(p.expr())
    p.expect(".")
    return head, body, tok


def _resolve_clause(b: _Builder, head: Node | None, body: list[Node],
                    tok: Tok) -> Clause:
    env = _ClauseEnv(b)
    head_atom: Atom | None = None
    atoms_raw: list[Node] = []
    constraints_raw: list[Node] = []
    for item in body:
        if item.kind == "app" and item.text in b.preds:
            atoms_raw.append(item)
        else:
            constraints_raw.append(item)

    # Atoms first (they pin variable sorts), then head, then constraints.
    body_atoms = [_resolve_atom(b, n, env) for n in atoms_raw]
    if head is not None:
        if head.text not in b.preds:
            raise ParseError(f"undeclared predicate {head.text!r}",
                             head.line, head.col)
        head_atom = _resolve_atom(b, head, env)
    constraint = mk_and(*(b.to_formula(n, env) for n in constraints_raw))

    extra, body_atoms = _normalize_body(b, body_atoms)
    return Clause(head_atom, mk_and(constraint, *extra), tuple(body_atoms))


def _resolve_atom(b: _Builder, n: Node, env: _ClauseEnv) -> Atom:
    decl = b.preds[n.text]
    if len(n.kids) != len(decl.arg_sorts):
        raise ParseError(
            f"{n.text} expects {len(decl.arg_sorts)} arguments, got {len(n.kids)}",
            n.line, n.col)
    args = tuple(b.to_term(k, s, env) for k, s in zip(n.kids, decl.arg_sorts))
    return Atom(n.text, args)


def _normalize_body(b: _Builder, atoms: list[Atom]) -> tuple[list[Formula], list[Atom]]:
    """Flatten body atoms to distinct-variable arguments."""
    extra: list[Formula] = []
    out: list[Atom] = []
    for a in atoms:
        seen: set[Var] = set()
        new_args: list[Term] = []
        for t in a.args:
            if isinstance(t, Var) and t not in seen:
                seen.add(t)
                new_args.append(t)
            else:
                f = b.gen.fresh_var(term_sort(t))
                extra.append(eq_of(f, t, term_sort(t)))
                new_args.append(f)
                seen.add(f)
        out.append(Atom(a.pred, tuple(new_args)))
    return extra, out


def _check_query_uniqueness(b: _Builder, problem: Problem) -> None:
    seen: dict[str, int] = {}
    for q in problem.queries:
        prog = [a for a in q.body if b.preds[a.pred].kind == PRED_PROGRAM]
        if len(prog) == 1:
            pred = prog[0].pred
            if pred in seen:
                raise ParseError(f"duplicate query for predicate {pred}")
            seen[pred] = 1
