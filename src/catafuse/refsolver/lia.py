"""Integer linear rows and the one eliminator over them.

A row (c, k) stands for  sum(c[v]·v) + k = 0  in an equality list and for
sum(c[v]·v) + k <= 0  in an inequality list. `eliminate` removes the
variables a predicate accepts: Gaussian substitution on unit-coefficient
equalities, then Fourier-Motzkin resolution with integer tightening, on
the variable with the fewest combined pairs first. It is the only integer
elimination in the package: qfcore decides integer feasibility with it
(every variable dropped), and the constraint engine projects a clause
constraint onto the kept variables with it.

Every result row is implied by the input rows over the integers. The
result is exact (its integer solutions are exactly the shadows of the
input's) while some side of every combined pair has a unit coefficient,
which holds for the clause constraints this package produces; a non-unit
pair clears the exact flag, since its real shadow may hold no integer point.

The module imports only the syntax, so the engine can use it without
loading the rest of the QF core.
"""

from __future__ import annotations

import time
from math import gcd

from ..syntax import FComp, Formula, IntConst, Var, lin_sub

ROW_CAP = 4000  # inequalities one Fourier-Motzkin step may produce


class Budget:
    def __init__(self, steps: int = 400_000, deadline: float | None = None) -> None:
        self.steps = steps
        self.deadline = deadline
        self.exhausted = False

    def spend(self, n: int = 1) -> bool:
        self.steps -= n
        if self.steps <= 0 or (self.deadline is not None
                               and time.monotonic() > self.deadline):
            self.exhausted = True
        return not self.exhausted


class Infeasible(Exception):
    """Elimination derived a false constant row: no integer solution."""


class Overflow(Exception):
    """The step budget or ROW_CAP ran out before elimination finished."""


def canon_atom(f: Formula) -> Formula:
    """FComp atoms become  t <= 0  or  t = 0  with t canonical linear."""
    if isinstance(f, FComp):
        d = lin_sub(f.lhs, f.rhs)
        if f.rel == "=":
            return FComp("=", d, IntConst(0))
        if f.rel == "=<":
            return FComp("=<", d, IntConst(0))
        if f.rel == "<":
            return FComp("=<", lin_sub(d, IntConst(-1)), IntConst(0))
        if f.rel == ">=":
            return FComp("=<", lin_sub(IntConst(0), d), IntConst(0))
        if f.rel == ">":
            return FComp("=<", lin_sub(IntConst(1), d), IntConst(0))
    return f


def _tighten(c: dict[Var, int], k: int) -> tuple[dict[Var, int], int]:
    """Divide sum(c)v + k <= 0 by gcd(c) with exact integer rounding."""
    c = {v: a for v, a in c.items() if a != 0}
    g = gcd(*[abs(a) for a in c.values()]) if c else 1
    if g > 1:
        c = {v: a // g for v, a in c.items()}
        k = -((-k) // g)
    return c, k


def _dedup(les):
    seen = set()
    out = []
    for c, k in les:
        key = (tuple(sorted(((v.name, a) for v, a in c.items()))), k)
        if key not in seen:
            seen.add(key)
            out.append((c, k))
    return out


def _substitute(rows, var: Var, sub_c: dict[Var, int], sub_k: int) -> None:
    """Replace var by sum(sub_c)v + sub_k in every row, in place."""
    for i, (c, k) in enumerate(rows):
        a = c.get(var)
        if a is None:
            continue
        nc = {v: x for v, x in c.items() if v != var}
        for v, x in sub_c.items():
            nc[v] = nc.get(v, 0) + a * x
            if nc[v] == 0:
                del nc[v]
        rows[i] = (nc, k + a * sub_k)


def eliminate(eqs, les, drop, budget: Budget):
    """Eliminate the variables that `drop` accepts from the rows eqs (= 0)
    and les (<= 0); the callers' lists are left alone.

    Returns (eqs, les, exact): the equalities over kept variables only, the
    tightened and deduplicated inequalities without constant rows, and
    whether the elimination was exact. Raises Infeasible on a false
    constant row, and Overflow when the budget or ROW_CAP runs out."""
    eqs = [({v: a for v, a in c.items() if a != 0}, k) for c, k in eqs]
    les = [_tighten(c, k) for c, k in les]
    kept = []

    # Gaussian elimination: solve unit-coefficient equalities, normalize the
    # rest by gcd, and turn stubborn ones into inequality pairs.
    while eqs:
        c, k = eqs.pop()
        if not c:
            if k != 0:
                raise Infeasible
            continue
        g = gcd(*[abs(a) for a in c.values()])
        if g > 1:
            if k % g != 0:
                raise Infeasible
            c = {v: a // g for v, a in c.items()}
            k //= g
        unit = next((v for v, a in sorted(c.items(), key=lambda p: p[0].name)
                     if abs(a) == 1 and drop(v)), None)
        if unit is not None:
            a = c[unit]
            # a*unit + rest + k = 0  =>  unit = -a*(rest + k)
            sub_c = {v: -x * a for v, x in c.items() if v != unit}
            sub_k = -k * a
            _substitute(eqs, unit, sub_c, sub_k)
            _substitute(les, unit, sub_c, sub_k)
        elif any(drop(v) for v in c):
            les.append((dict(c), k))
            les.append(({v: -a for v, a in c.items()}, -k))
        else:
            kept.append((c, k))

    exact = True
    while True:
        les = _dedup([_tighten(c, k) for c, k in les])
        for c, k in les:
            if not c and k > 0:
                raise Infeasible
        les = [(c, k) for c, k in les if c]
        vs = [v for v in {v for c, _ in les for v in c} if drop(v)]
        if not vs:
            return kept, les, exact
        if not budget.spend(len(les)):
            raise Overflow

        def cost(v: Var) -> int:
            lo = sum(1 for c, _ in les if c.get(v, 0) < 0)
            hi = sum(1 for c, _ in les if c.get(v, 0) > 0)
            return lo * hi

        x = min(vs, key=lambda v: (cost(v), v.name))
        lows = [(c, k) for c, k in les if c.get(x, 0) < 0]
        highs = [(c, k) for c, k in les if c.get(x, 0) > 0]
        new = [(c, k) for c, k in les if c.get(x, 0) == 0]
        for cl, kl in lows:
            al = -cl[x]
            for ch, kh in highs:
                ah = ch[x]
                if min(al, ah) != 1:
                    exact = False  # real shadow only
                comb: dict[Var, int] = {}
                for v, a in cl.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + ah * a
                for v, a in ch.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + al * a
                new.append(_tighten(comb, ah * kl + al * kh))
                if len(new) > ROW_CAP:
                    raise Overflow
        les = new
