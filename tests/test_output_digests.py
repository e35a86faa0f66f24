"""The files emitted for every corpus problem stay byte-identical to the
ones recorded: the sha256 of each output named in `perfbench/digests.json`
(which these tests only read) and, for the files only `catafuse transform`
writes (the surface clauses, the JSON derivation log and the
`--emit-obligations` scripts), in `tests/cli_digests.json`. The transforms
use the bundled oracle, so a z3 on PATH cannot change them."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from catafuse.cli import main
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
CLI_DIGESTS = json.loads((ROOT / "tests" / "cli_digests.json")
                         .read_text(encoding="utf-8"))


def _digests_of(table: dict[str, str], stem: str) -> dict[str, str]:
    return {key.split(".", 1)[1]: digest for key, digest in table.items()
            if key.split(".", 1)[0] == stem}


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
    want = _digests_of(DIGESTS, stem)
    outputs = _outputs(stem)
    got = {kind: hashlib.sha256(outputs[kind].encode()).hexdigest()
           for kind in want}
    assert got == want


@pytest.mark.parametrize("stem", STEMS)
def test_cli_outputs_match_recorded_digests(stem, tmp_path, monkeypatch):
    """The files `catafuse transform --emit-obligations` writes, but for the
    two the test above checks: each one recorded, and nothing more."""
    monkeypatch.delenv("CHC_ORACLE", raising=False)
    monkeypatch.setattr(shutil, "which", lambda name: None)  # no z3
    assert main(["transform", str(CORPUS / f"{stem}.chc"),
                 "--out", str(tmp_path), "--emit-obligations"]) == 0
    got = {path.name.split(".", 1)[1]:
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    for kind in ("transformed.smt2", "derivation.log"):
        del got[kind]
    assert got == _digests_of(CLI_DIGESTS, stem)
