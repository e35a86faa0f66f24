"""SMT-LIB 2 emission: whole clause sets, single formulas, proof obligations.

Name mangling (see README): list(s) -> Lst_<s>, tree(s) -> Tr_<s>, the list
constructors become nil_<Sort> / cons_<Sort> with selectors <ctor>_<i>; user
ADT and predicate names pass through unchanged. Variables are emitted under
their per-clause display names (A, B, C, ..., `syntax.display_names`),
which keeps the output deterministic: emitting the same clause set twice is
byte-identical. The printers take that name map; nothing is renamed by
building a copy. A clause's forall binders list its variables in order of
first occurrence (head, constraint, body). A script declares only the
datatypes that its predicates and variables use.

Ground clauses are emitted without a forall wrapper (SMT-LIB 2 has no empty
binder lists).
"""

from __future__ import annotations

from .syntax import (
    BOOL, INT, Atom, BoolConst, Clause, FAnd, FComp, FEq, FFalse, FIff,
    FImp, FIte, FNot, FOr, FTrue, FVar, Formula, IntConst, LinExpr, Ctor,
    PredDecl, Problem, Sort, SortTable, Term, TermIte, Var,
    display_names, eq_of, mk_and, mk_not, named_summands,
)


def mangle_sort(s: Sort) -> str:
    if s == INT:
        return "Int"
    if s == BOOL:
        return "Bool"
    name = s.name
    if name.startswith("list(") and name.endswith(")"):
        return "Lst_" + mangle_sort(Sort(name[5:-1]))
    if name.startswith("tree(") and name.endswith(")"):
        return "Tr_" + mangle_sort(Sort(name[5:-1]))
    return name


def mangle_ctor(sort: Sort, ctor: str) -> str:
    base = {"[]": "nil", "cons": "cons", "leaf": "leaf", "node": "node"}.get(ctor)
    if base is None:
        return ctor
    return f"{base}_{mangle_sort(sort)}"


def _smt_int(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def smt_term(t: Term, names: dict[Var, str] | None = None) -> str:
    """t in SMT-LIB, each variable by its name in `names` if given, else by
    its own."""
    if isinstance(t, Var):
        return t.name if names is None else names[t]
    if isinstance(t, IntConst):
        return _smt_int(t.value)
    if isinstance(t, LinExpr):
        parts = [n if a == 1 else f"(* {_smt_int(a)} {n})"
                 for n, a in named_summands(t, names)]
        if t.const != 0 or not parts:
            parts.append(_smt_int(t.const))
        if len(parts) == 1:
            return parts[0]
        return "(+ " + " ".join(parts) + ")"
    if isinstance(t, Ctor):
        name = mangle_ctor(t.sort, t.ctor)
        if not t.args:
            return name
        return f"({name} " + " ".join(smt_term(a, names) for a in t.args) + ")"
    if isinstance(t, TermIte):
        return (f"(ite {smt_formula(t.cond, names)} {smt_term(t.then, names)} "
                f"{smt_term(t.els, names)})")
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    raise TypeError(f"unknown term {t!r}")


_REL = {"=": "=", "<": "<", "=<": "<=", ">=": ">=", ">": ">"}


def smt_formula(f: Formula, names: dict[Var, str] | None = None) -> str:
    """f in SMT-LIB, each variable named as by `smt_term`."""
    if isinstance(f, FComp):
        return f"({_REL[f.rel]} {smt_term(f.lhs, names)} {smt_term(f.rhs, names)})"
    if isinstance(f, FEq):
        return f"(= {smt_term(f.lhs, names)} {smt_term(f.rhs, names)})"
    if isinstance(f, FVar):
        return f.var.name if names is None else names[f.var]
    if isinstance(f, FNot):
        return f"(not {smt_formula(f.arg, names)})"
    if isinstance(f, FAnd):
        return "(and " + " ".join(smt_formula(a, names) for a in f.args) + ")"
    if isinstance(f, FOr):
        return "(or " + " ".join(smt_formula(a, names) for a in f.args) + ")"
    if isinstance(f, FImp):
        return f"(=> {smt_formula(f.lhs, names)} {smt_formula(f.rhs, names)})"
    if isinstance(f, FIff):
        return f"(= {smt_formula(f.lhs, names)} {smt_formula(f.rhs, names)})"
    if isinstance(f, FIte):
        return (f"(ite {smt_formula(f.cond, names)} {smt_formula(f.then, names)} "
                f"{smt_formula(f.els, names)})")
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    raise TypeError(f"unknown formula {f!r}")


def datatype_block(sorts: SortTable) -> list[str]:
    defs = sorts.adt_defs()
    if not defs:
        return []
    names = " ".join(f"({mangle_sort(d.sort)} 0)" for d in defs)
    bodies = []
    for d in defs:
        ctors = []
        for c in d.ctors:
            cname = mangle_ctor(d.sort, c.name)
            sels = " ".join(
                f"({cname}_{i + 1} {mangle_sort(s)})" for i, s in enumerate(c.arg_sorts))
            ctors.append(f"({cname}{(' ' + sels) if sels else ''})")
        bodies.append("(" + " ".join(ctors) + ")")
    return [f"(declare-datatypes ({names}) ({' '.join(bodies)}))"]


def clause_assert(c: Clause) -> str:
    names = display_names(c)
    head = "false" if c.head is None else smt_atom(c.head, names)
    parts: list[str] = []
    if not isinstance(c.constraint, FTrue):
        parts.append(smt_formula(c.constraint, names))
    parts.extend(smt_atom(a, names) for a in c.body)
    if not parts:
        impl = head
    elif len(parts) == 1:
        impl = f"(=> {parts[0]} {head})"
    else:
        impl = f"(=> (and {' '.join(parts)}) {head})"
    if not names:
        return f"(assert {impl})"
    binders = " ".join(f"({n} {mangle_sort(v.sort)})" for v, n in names.items())
    return f"(assert (forall ({binders}) {impl}))"


def smt_atom(a: Atom, names: dict[Var, str] | None = None) -> str:
    """a in SMT-LIB, each variable named as by `smt_term`."""
    if not a.args:
        return a.pred
    return f"({a.pred} " + " ".join(smt_term(t, names) for t in a.args) + ")"


def emit_script(clauses: list[Clause], preds: dict[str, PredDecl],
                sorts: SortTable, logic: str = "HORN") -> str:
    used = set()
    for c in clauses:
        if c.head is not None:
            used.add(c.head.pred)
        used.update(a.pred for a in c.body)
    lines = [f"(set-logic {logic})"]
    lines += datatype_block(sorts.used_by((preds[n] for n in used), clauses))
    for name in sorted(used):
        d = preds[name]
        args = " ".join(mangle_sort(s) for s in d.arg_sorts)
        lines.append(f"(declare-fun {name} ({args}) Bool)")
    for c in clauses:
        lines.append(clause_assert(c))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def emit_smtlib(problem: Problem, logic: str = "HORN") -> str:
    """SMT-LIB Horn script for a whole problem (definite clauses + queries)."""
    return emit_script(problem.all_clauses(), problem.preds, problem.sorts, logic)


# ---------------------------------------------------------------------------
# Proof obligations for catamorphism schemas
# ---------------------------------------------------------------------------

def _cata_args(pred: PredDecl, adt, ins: list, outs: list) -> list:
    """`pred`'s arguments: `adt` at its ADT position, `ins[k]` at
    `pred.in_idx[k]`, and `outs` at the other positions, in order."""
    at = dict(zip(pred.in_idx, ins))
    at[pred.adt_idx] = adt
    rest = iter(outs)
    return [at[i] if i in at else next(rest)
            for i in range(len(pred.arg_sorts))]


def functionality_obligation(pred: PredDecl, clauses: list[Clause],
                             preds: dict[str, PredDecl], sorts: SortTable) -> str:
    """CHC script that is satisfiable iff the catamorphism is functional.

    Asserts the defining clauses plus a query demanding two distinct output
    tuples for the same inputs; a Horn solver's 'sat' discharges it.
    """
    ins = [Var(f"X{i}", pred.arg_sorts[i]) for i in pred.in_idx]
    t = Var("T", pred.arg_sorts[pred.adt_idx])
    ys = [Var(f"Y{i}", pred.arg_sorts[i]) for i in pred.out_idx]
    zs = [Var(f"Z{i}", pred.arg_sorts[i]) for i in pred.out_idx]

    def call(outs: list[Var]) -> Atom:
        return Atom(pred.name, tuple(_cata_args(pred, t, ins, outs)))

    same = mk_and(*(eq_of(y, z, y.sort) for y, z in zip(ys, zs)))
    query = Clause(None, mk_not(same), (call(ys), call(zs)), origin="obligation")
    lines = [f"; functionality obligation for {pred.name}: sat iff single-valued"]
    lines.append(emit_script(clauses + [query], preds, sorts, "HORN").rstrip())
    return "\n".join(lines) + "\n"


def totality_obligation(pred: PredDecl, clauses: list[Clause],
                        preds: dict[str, PredDecl], sorts: SortTable) -> str:
    """Quantified (non-Horn) script stating every input has an output."""
    body = emit_script(clauses, preds, sorts, "ALL")
    body = body.rsplit("(check-sat)", 1)[0]
    ins = [(f"X{i}", mangle_sort(pred.arg_sorts[i])) for i in pred.in_idx]
    t = ("T", mangle_sort(pred.arg_sorts[pred.adt_idx]))
    outs = [(f"Y{i}", mangle_sort(pred.arg_sorts[i])) for i in pred.out_idx]
    args = _cata_args(pred, t[0], [n for n, _ in ins], [n for n, _ in outs])
    uni = " ".join(f"({n} {s})" for n, s in ins + [t])
    exi = " ".join(f"({n} {s})" for n, s in outs)
    atom = f"({pred.name} {' '.join(args)})"
    lines = [f"; totality obligation for {pred.name}: valid iff every input has an output",
             body.rstrip(),
             f"(assert (forall ({uni}) (exists ({exi}) {atom})))",
             "(check-sat)"]
    return "\n".join(lines) + "\n"
