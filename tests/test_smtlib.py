import re
import string

from catafuse.catas import check_schema
from catafuse.parser import parse_problem
from catafuse.refsolver.smtparse import parse_sexps
from catafuse.refsolver import horn
from catafuse.smtlib import (clause_assert, emit_smtlib,
                             functionality_obligation, totality_obligation)
from catafuse.syntax import INT, Clause, FComp, IntConst, Var, mk_and


def test_emission_is_deterministic(insertion_sort_text):
    p1 = parse_problem(insertion_sort_text)
    p2 = parse_problem(insertion_sort_text)
    assert emit_smtlib(p1) == emit_smtlib(p2)
    assert emit_smtlib(p1) == emit_smtlib(p1)


def test_emitted_script_reparses(insertion_sort):
    # the derived oracle: an independent SMT-LIB parser accepts the file
    script = emit_smtlib(insertion_sort)
    clauses, ctx = horn.read_script(script)
    assert len(clauses) == len(insertion_sort.all_clauses())
    assert set(ctx.preds) == set(insertion_sort.preds)
    queries = [c for c in clauses if c.head is None]
    assert len(queries) == 4


def test_ground_fact_has_no_forall():
    p = parse_problem("pred empty_list(list(int)).\nempty_list([]).\n")
    script = emit_smtlib(p)
    assert "(assert (empty_list nil_Lst_Int))" in script
    assert "forall ()" not in script


def test_query_shape(insertion_sort):
    script = emit_smtlib(insertion_sort)
    assert script.count("false)))") + script.count("false))") >= 4
    assert script.rstrip().endswith("(check-sat)")


def _oracle_accepts(script: str) -> str:
    """Feed a whole script to the reference oracle; no (error ...) allowed."""
    import subprocess
    import sys
    proc = subprocess.Popen(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    out, _ = proc.communicate(script + "\n(exit)\n", timeout=120)
    assert "(error" not in out, out
    return out.split()[-1] if out.split() else ""


def test_obligations_accepted_by_oracle_parser(insertion_sort):
    for name in ("ordered", "first", "last"):
        schema = check_schema(name, insertion_sort)
        cls = [schema.base_clause, schema.rec_clause]
        for inner in schema.inner_preds:
            s2 = check_schema(inner, insertion_sort)
            cls += [s2.base_clause, s2.rec_clause]
        fn = functionality_obligation(insertion_sort.preds[name], cls,
                                      insertion_sort.preds, insertion_sort.sorts)
        # Horn-shaped: the reference solver's parser accepts it, and a Horn
        # solver can be pointed at the emitted query
        clauses, _ = horn.read_script(fn)
        assert any(c.head is None for c in clauses)
        assert _oracle_accepts(fn) in ("sat", "unsat", "unknown")
        tt = totality_obligation(insertion_sort.preds[name], cls,
                                 insertion_sort.preds, insertion_sort.sorts)
        sexps = parse_sexps(tt)
        heads = [s[0] for s in sexps if isinstance(s, list)]
        assert "assert" in heads and "declare-fun" in heads
        assert _oracle_accepts(tt) in ("sat", "unsat", "unknown")


def test_datatype_block_mangling(insertion_sort):
    script = emit_smtlib(insertion_sort)
    assert "(declare-datatypes ((Lst_Int 0))" in script
    assert "(cons_Lst_Int (cons_Lst_Int_1 Int) (cons_Lst_Int_2 Lst_Int))" in script


def test_binders_follow_first_occurrence_past_52_variables():
    # display names run A..Z, A1..Z1, A2..: sorting them by (length, name)
    # would put A2 before B1
    vs = [Var(f"V{i:02d}", INT) for i in range(60)]
    c = Clause(None, mk_and(*(FComp(">=", v, IntConst(0)) for v in vs)), ())
    binders = re.findall(r"\((\w+) Int\)", clause_assert(c).split(") (=>")[0])
    assert binders == [f"{ch}{n or ''}" for n in range(3)
                       for ch in string.ascii_uppercase][:60]
