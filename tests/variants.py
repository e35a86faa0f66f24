"""Variant matching for the tests: clause isomorphism modulo variable
renaming. The tests compare derived clauses with hand-written golden ones
and refutation facts with reference facts up to the names of variables;
the package itself needs no variant test.
"""

from __future__ import annotations

from collections.abc import Iterator

from catafuse.syntax import Atom, Clause, Formula, LinExpr, Term, Var


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
