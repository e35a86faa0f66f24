"""The files emitted for every corpus problem stay byte-identical to the
ones the benchmark recorded: the sha256 of each output named in
`perfbench/digests.json` (which this test only reads) is checked. The
transforms use the bundled oracle, so a z3 on PATH cannot change them."""

import hashlib
import json
from pathlib import Path

import pytest

from catafuse.engine import ConstraintEngine, Oracle, bundled_cmd
from catafuse.parser import parse_problem
from catafuse.smtlib import emit_smtlib
from catafuse.transform import transform_problem, transformed_problem

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json")
                     .read_text(encoding="utf-8"))
# keys are "<problem>.<file kind>", e.g. "member_sat.derivation.log"
STEMS = sorted({key.split(".", 1)[0] for key in DIGESTS})


def _outputs(stem: str) -> dict[str, str]:
    problem = parse_problem((CORPUS / f"{stem}.chc").read_text(encoding="utf-8"))
    out = {"original.smt2": emit_smtlib(problem)}
    engine = ConstraintEngine(Oracle(bundled_cmd("catafuse.refsolver.oracle")))
    try:
        result = transform_problem(problem, engine)
    finally:
        engine.close()
    out["transformed.smt2"] = emit_smtlib(transformed_problem(problem, result))
    out["derivation.log"] = result.log.to_text()
    return out


@pytest.mark.parametrize("stem", STEMS)
def test_outputs_match_recorded_digests(stem):
    want = {key.split(".", 1)[1]: digest for key, digest in DIGESTS.items()
            if key.split(".", 1)[0] == stem}
    outputs = _outputs(stem)
    got = {kind: hashlib.sha256(outputs[kind].encode()).hexdigest()
           for kind in want}
    assert got == want
