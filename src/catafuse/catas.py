"""Predicate classification, catamorphism schema checking, query validation.

A property predicate must match the recursive shape for its ADT: one base
clause whose structural argument is the nullary constructor, one recursive
clause whose structural argument is the unary-recursive pattern, and a body
made of catamorphism calls on the structural subterms plus an inlined
base/combine constraint. Inner catamorphisms are validated recursively.
Degenerate shapes are accepted the way the canonical examples use them: the
recursive self-call and the inner calls may be omitted when the combine
constraint does not use their outputs (first/last style).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    BOOL, Atom, Clause, Ctor, Formula, PRED_CATA, PRED_PROGRAM, PredDecl,
    Problem, Sort, Term, Var, eval_formula, free_vars,
)


class AnalysisError(Exception):
    pass


class QueryValidationError(AnalysisError):
    def __init__(self, conditions: list[str]) -> None:
        super().__init__("; ".join(conditions))
        self.conditions = conditions


def classify_predicates(problem: Problem) -> dict[str, str]:
    """Each predicate is program, catamorphism, or builtin-true; property
    predicates may occur in property clauses and queries only."""
    kinds = {name: d.kind for name, d in problem.preds.items()}
    for c in problem.program:
        for a in c.body:
            if kinds.get(a.pred) == PRED_CATA:
                raise AnalysisError(
                    f"property predicate {a.pred} occurs in a program clause")
    for c in problem.properties:
        for a in c.body:
            if kinds.get(a.pred) != PRED_CATA:
                raise AnalysisError(
                    f"non-catamorphism atom {a.pred} in a property clause")
    return kinds


def io_split(a: Atom, decl: PredDecl) -> tuple[tuple[Term, ...], Term, tuple[Term, ...]]:
    """(input basic args, ADT arg, output args) per the declared partition."""
    xs = tuple(a.args[i] for i in decl.in_idx)
    t = a.args[decl.adt_idx]
    ys = tuple(a.args[i] for i in decl.out_idx)
    return xs, t, ys


@dataclass
class CatamorphismSchema:
    pred: str
    shape: str  # "list" | "tree"
    adt_sort: Sort
    output_sorts: tuple[Sort, ...]
    base_clause: Clause
    rec_clause: Clause
    inner_preds: tuple[str, ...]


def _structural_ctors(problem: Problem, sort: Sort) -> tuple[str, str, list[int]]:
    """(nullary ctor, recursive ctor, recursive positions) for list/tree-like sorts."""
    sd = problem.sorts.resolve(sort)
    nullary = [c for c in sd.ctors if not c.arg_sorts]
    recur = [c for c in sd.ctors if sort in c.arg_sorts]
    if len(sd.ctors) != 2 or len(nullary) != 1 or len(recur) != 1:
        raise AnalysisError(
            f"sort {sort} is not a list/tree-shaped ADT (one nullary and one "
            f"recursive constructor required)")
    rec_positions = [i for i, s in enumerate(recur[0].arg_sorts) if s == sort]
    return nullary[0].name, recur[0].name, rec_positions


def check_schema(pred: str, problem: Problem,
                 _seen: set[str] | None = None) -> CatamorphismSchema:
    decl = problem.preds.get(pred)
    if decl is None or decl.kind != PRED_CATA:
        raise AnalysisError(f"{pred} is not declared as a catamorphism")
    seen = _seen if _seen is not None else set()
    seen.add(pred)

    clauses = [c for c in problem.properties if c.head and c.head.pred == pred]
    if len(clauses) != 2:
        raise AnalysisError(
            f"{pred}: a catamorphism needs exactly one base and one recursive "
            f"clause, found {len(clauses)}")
    adt_sort = decl.arg_sorts[decl.adt_idx]
    nul, rec, rec_pos = _structural_ctors(problem, adt_sort)
    shape = "list" if len(rec_pos) == 1 else "tree"
    if len(rec_pos) > 2:
        raise AnalysisError(f"{pred}: more than two recursive positions in {adt_sort}")

    base = recur = None
    for c in clauses:
        t = c.head.args[decl.adt_idx]
        if isinstance(t, Ctor) and t.ctor == nul:
            if base is not None:
                raise AnalysisError(f"{pred}: two base clauses")
            base = c
        elif isinstance(t, Ctor) and t.ctor == rec:
            if recur is not None:
                raise AnalysisError(f"{pred}: two recursive clauses")
            recur = c
        else:
            raise AnalysisError(
                f"{pred}: structural argument of a clause head must be the "
                f"{nul} or {rec} pattern")
    if base is None:
        raise AnalysisError(f"{pred}: missing base clause")
    if recur is None:
        raise AnalysisError(f"{pred}: missing recursive clause")

    xs_b, _, ys_b = io_split(base.head, decl)
    _check_distinct_vars(pred, "base head", xs_b + ys_b)
    if base.body:
        raise AnalysisError(f"{pred}: base clause body must be a constraint only")
    base_locals = free_vars(base.constraint) - free_vars(list(xs_b + ys_b))
    if any(v.sort.is_adt for v in base_locals):
        raise AnalysisError(f"{pred}: base constraint binds ADT variables")

    xs_r, t_r, ys_r = io_split(recur.head, decl)
    _check_distinct_vars(pred, "recursive head", xs_r + ys_r)
    assert isinstance(t_r, Ctor)
    subs = [t_r.args[i] for i in rec_pos]
    elems = [a for i, a in enumerate(t_r.args) if i not in rec_pos]
    for s in subs + elems:
        if not isinstance(s, Var):
            raise AnalysisError(f"{pred}: structural pattern must bind variables")
    sub_vars = set(subs)

    inner: list[str] = []
    call_outputs: list[Var] = []
    per_site: set[tuple[str, Var]] = set()
    for a in recur.body:
        adecl = problem.preds.get(a.pred)
        if adecl is None or adecl.kind != PRED_CATA:
            raise AnalysisError(
                f"{pred}: recursive clause body atom {a.pred} is not a catamorphism")
        axs, at, ays = io_split(a, adecl)
        if not (isinstance(at, Var) and at in sub_vars):
            raise AnalysisError(
                f"{pred}: call {a.pred} must consume a structural subterm")
        if (a.pred, at) in per_site:
            raise AnalysisError(
                f"{pred}: duplicate {a.pred} call on the same subterm")
        per_site.add((a.pred, at))
        for x in axs:
            if not (isinstance(x, Var) and x in set(xs_r)):
                raise AnalysisError(
                    f"{pred}: inner call inputs must come from the input tuple")
        for y in ays:
            if not isinstance(y, Var) or y in call_outputs or y in set(xs_r) \
                    or y in set(ys_r) or y in sub_vars:
                raise AnalysisError(
                    f"{pred}: call outputs must be fresh distinct variables")
            call_outputs.append(y)
        if a.pred != pred:
            inner.append(a.pred)
        if a.pred != pred and a.pred not in seen:
            check_schema(a.pred, problem, seen)

    # locals beyond inputs/outputs/elements are fine (inlined compositions of
    # total combine functions introduce them); structural variables are not
    allowed = set(xs_r) | set(ys_r) | set(elems) | set(call_outputs)
    combine_locals = free_vars(recur.constraint) - allowed
    if any(v.sort.is_adt for v in combine_locals):
        raise AnalysisError(
            f"{pred}: combine constraint must not mention ADT variables")

    return CatamorphismSchema(
        pred=pred, shape=shape,
        adt_sort=adt_sort,
        output_sorts=tuple(decl.arg_sorts[i] for i in decl.out_idx),
        base_clause=base, rec_clause=recur,
        inner_preds=tuple(dict.fromkeys(inner)))


def _check_distinct_vars(pred: str, where: str, ts: tuple[Term, ...]) -> None:
    vs = [t for t in ts]
    if not all(isinstance(t, Var) for t in vs) or len(set(vs)) != len(vs):
        raise AnalysisError(f"{pred}: {where} needs distinct variable arguments")


# ---------------------------------------------------------------------------
# Query validation (catamorphism-based queries)
# ---------------------------------------------------------------------------

@dataclass
class QuerySpec:
    constraint: Formula
    cata_atoms: list[tuple[Atom, tuple[Var, ...], Var, tuple[Var, ...]]]
    program_atom: Atom


def validate_query(q: Clause, problem: Problem) -> QuerySpec:
    """Check the five query conditions; every violation is reported."""
    errors: list[str] = []
    if not q.is_query:
        raise AnalysisError("not a query: head is not false")
    prog = [a for a in q.body if problem.preds[a.pred].kind == PRED_PROGRAM]
    catas = [a for a in q.body if problem.preds[a.pred].kind == PRED_CATA]
    others = [a for a in q.body
              if problem.preds[a.pred].kind not in (PRED_PROGRAM, PRED_CATA)]

    if len(prog) != 1 or others:
        errors.append("(i): need exactly one program atom")
        program_atom = prog[0] if prog else Atom("?", ())
    else:
        program_atom = prog[0]
        if not all(isinstance(t, Var) for t in program_atom.args) or \
                len(set(program_atom.args)) != len(program_atom.args):
            errors.append("(i): program atom arguments must be distinct variables")

    split: list[tuple[Atom, tuple[Var, ...], Var, tuple[Var, ...]]] = []
    xs_all: set[Var] = set()
    ys_all: list[Var] = []
    ts_all: list[Term] = []
    ys_ok = True
    for a in catas:
        decl = problem.preds[a.pred]
        xs, t, ys = io_split(a, decl)
        if not all(isinstance(v, Var) for v in xs + (t,) + ys):
            errors.append(f"(iii): catamorphism atom {a.pred} must take variables")
            ys_ok = False
            continue
        split.append((a, xs, t, ys))  # type: ignore[arg-type]
        xs_all |= set(xs)
        ys_all.extend(ys)  # type: ignore[arg-type]
        ts_all.append(t)

    z_vars = set(v for v in program_atom.args if isinstance(v, Var))
    if ys_ok:
        if len(set(ys_all)) != len(ys_all):
            errors.append("(iv): output tuples must be pairwise disjoint, "
                          "distinct variables")
        if set(ys_all) & (xs_all | z_vars):
            errors.append("(iv): output variables must not occur among the "
                          "inputs or the program atom arguments")
    allowed = xs_all | set(ys_all) | z_vars
    if not free_vars(q.constraint) <= allowed:
        errors.append("(ii): constraint variables must come from the "
                      "catamorphism arguments and the program atom")
    for t in ts_all:
        if t not in z_vars:
            errors.append("(v): every structural input variable must occur "
                          "in the program atom")
            break
    if errors:
        raise QueryValidationError(errors)
    return QuerySpec(q.constraint, split, program_atom)


def validate_problem(problem: Problem) -> dict[str, QuerySpec]:
    """classify + schema-check + query-validate; keyed by program predicate."""
    classify_predicates(problem)
    for name, d in problem.preds.items():
        if d.kind == PRED_CATA:
            check_schema(name, problem)
    specs: dict[str, QuerySpec] = {}
    for q in problem.queries:
        spec = validate_query(q, problem)
        pred = spec.program_atom.pred
        if pred in specs:
            raise AnalysisError(f"two queries for program predicate {pred}")
        specs[pred] = spec
    return specs


# ---------------------------------------------------------------------------
# Desk-scale brute-force evaluation (functionality/totality spot checks)
# ---------------------------------------------------------------------------

def eval_cata(problem: Problem, pred: str, structure,
              inputs: tuple = (), int_grid: range = range(-8, 9)):
    """All output tuples of a list catamorphism on a concrete structure.

    Structures are python tuples (lists); outputs are enumerated over bools
    and the given integer grid, which covers the desk-scale corpus (lengths,
    sums, minima, maxima, heads, lasts of length<=4 lists over {0,1}).
    """
    schema = check_schema(pred, problem)
    decl = problem.preds[pred]
    if schema.shape != "list":
        raise AnalysisError("eval_cata handles list catamorphisms")

    def domain(sort: Sort):
        return (False, True) if sort == BOOL else tuple(int_grid)

    def run(struct) -> list[tuple]:
        if struct == ():
            clause, args = schema.base_clause, None
        else:
            clause, args = schema.rec_clause, (struct[0], struct[1:])
        xs, t, ys = io_split(clause.head, decl)
        env: dict[Var, object] = dict(zip(xs, inputs))  # type: ignore[arg-type]
        call_envs: list[dict[Var, object]] = [{}]
        if args is not None:
            head_elem, tail = args
            assert isinstance(t, Ctor)
            rec_i = [i for i, s in enumerate(
                problem.sorts.resolve(schema.adt_sort).ctor(t.ctor).arg_sorts)
                if s == schema.adt_sort][0]
            for i, sub in enumerate(t.args):
                env[sub] = tail if i == rec_i else head_elem  # type: ignore
            for a in clause.body:
                adecl = problem.preds[a.pred]
                axs, at, ays = io_split(a, adecl)
                sub_inputs = tuple(env[x] for x in axs)  # type: ignore[index]
                douts = eval_cata(problem, a.pred, tail, sub_inputs, int_grid) \
                    if a.pred != pred else run(tail)
                call_envs = [ce | dict(zip(ays, out))  # type: ignore[arg-type]
                             for ce in call_envs for out in douts]
        outs: list[tuple] = []
        for ce in call_envs:
            full = env | ce
            for combo in itertools.product(*(domain(s) for s in schema.output_sorts)):
                trial = full | dict(zip(ys, combo))  # type: ignore[arg-type]
                if eval_formula(clause.constraint, trial):
                    outs.append(combo)
        return outs

    return run(tuple(structure))
