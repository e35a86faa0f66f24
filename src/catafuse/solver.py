"""Drive an external CHC solver on emitted scripts; benchmark harness.

The solver is configuration-driven: binary path plus arguments, invoked as
`<solver> <args> <file.smt2>`, first stdout token one of sat/unsat/unknown.
Resolution order for the default: the CHC_SOLVER environment variable, a z3
binary on PATH (driven with its Horn engine), then the bundled reference
solver. The bundled solver is an SMT-LIB session on stdin (`-t <limit> -`,
see `refsolver.horn`): a solve lends a waiting session child of that
command from `engine.lend_child`, or starts one, sends it the script and
`(reset)`, and gives it back (`engine.give_back`) once it has answered, so
consecutive solves at one limit share one child. Nothing starts a session
ahead: that is the oracle's rule. A command that names its file is started
for each solve.
Equisatisfiability checking and the benchmark harness sit on top.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import os
import shlex
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

from .engine import (ConstraintEngine, OracleError, Overrun, bundled_cmd,
                     command_name, give_back, lend_child)
from .parser import parse_problem
from .refsolver.smtparse import UnsupportedSmt, parse_sexps
from .smtlib import emit_smtlib
from .syntax import Problem, value_class
from .transform import transform_problem, transformed_problem

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
TIMEOUT = "timeout"


def default_solver_cmd() -> list[str]:
    env = os.environ.get("CHC_SOLVER")
    if env:
        return shlex.split(env)
    z3 = shutil.which("z3")
    if z3:
        return [z3, "fp.engine=spacer"]
    return bundled_cmd("catafuse.refsolver.horn")


class SolverConfig:
    """How to run the CHC solver. With no `cmd`, the one that
    `default_solver_cmd` names when the config is made."""

    def __init__(self, cmd: list[str] | None = None, timeout: float = 300.0,
                 max_iterations: int = 50,
                 original_timeout: float | None = None) -> None:
        self.cmd = default_solver_cmd() if cmd is None else cmd
        self.timeout = timeout
        self.max_iterations = max_iterations
        # the untransformed side of a comparison may get a shorter budget:
        # the whole point of the transformation is that originals rarely solve
        self.original_timeout = original_timeout

    def identity(self) -> str:
        return command_name(self.cmd)

    def for_original(self) -> "SolverConfig":
        if self.original_timeout is None:
            return self
        return SolverConfig(self.cmd, self.original_timeout,
                            self.max_iterations)


@value_class
class SolveResult:
    verdict: str  # sat | unsat | unknown | timeout
    seconds: float
    solver: str


# a solver that has not answered this long after its limit is killed
KILL_GRACE = 10.0
# the longest wait subprocess can time (poll takes a C int of milliseconds);
# a solver whose limit is longer is waited for without a deadline
_LONGEST_WAIT = (2**31 - 1) / 1000


def _run(cmd: list[str], path: str | Path,
         timeout: float) -> tuple[int, str, str]:
    """Run a solver on the script at `path`: (exit status, stdout, stderr).
    Raises subprocess.TimeoutExpired when it has not answered within
    `timeout` + 10 s of being handed the script."""
    wait = timeout + KILL_GRACE
    if cmd and cmd[-1].endswith("refsolver.horn"):
        cmd = cmd + ["-t", str(timeout)]
        script = Path(path).read_text(encoding="utf-8")
        # a session answers every check-sat: a script that asks none, or
        # more than one, or that does not parse, is solved by a child of
        # its own, as a file (a check-sat in a comment or string asks none)
        try:
            asks = parse_sexps(script).count(["check-sat"])
        except UnsupportedSmt:
            asks = 0
        if asks == 1:
            return 0, _session_verdict(cmd + ["-"], script, wait), ""
    try:
        run = subprocess.run(cmd + [str(path)], capture_output=True,
                             text=True,
                             timeout=wait if wait < _LONGEST_WAIT else None)
    except FileNotFoundError:
        raise RuntimeError(f"solver binary not found: {cmd[0]}")
    return run.returncode, run.stdout, run.stderr


def _session_verdict(cmd: list[str], script: str, wait: float) -> str:
    """A session child's verdict on `script`, waited for `wait` s at most
    from the hand-over."""
    try:
        child = lend_child(cmd)
    except OracleError as e:
        raise RuntimeError(str(e)) from e
    try:
        # the child reads `(reset)` only once it has answered
        child.send(script + "(reset)")
        verdict = child.read_verdict(time.monotonic() + wait)
    except Overrun:
        child.discard()
        raise subprocess.TimeoutExpired(cmd, wait)
    except OracleError as e:
        child.discard()
        raise RuntimeError(str(e)) from e
    if verdict is None:  # after an `(error`, what it prints next is unknown
        child.discard()
        return UNKNOWN
    give_back(cmd, child)
    return verdict


def solve_file(path: str | Path, config: SolverConfig) -> SolveResult:
    start = time.monotonic()
    try:
        status, out, err = _run(list(config.cmd), path, config.timeout)
    except subprocess.TimeoutExpired:
        return SolveResult(TIMEOUT, time.monotonic() - start, config.identity())
    elapsed = time.monotonic() - start
    tokens = out.split()
    verdict = tokens[0] if tokens else ""
    if verdict not in (SAT, UNSAT, UNKNOWN):
        if "timeout" in out.lower():
            verdict = TIMEOUT
        elif status != 0:
            last = err.strip().splitlines()[-1:]
            raise RuntimeError(
                f"solver {config.identity()} exited with status {status} and no "
                f"verdict; stderr: {last[0] if last else '(empty)'}")
        else:
            verdict = UNKNOWN
    return SolveResult(verdict, elapsed, config.identity())


def solve(problem: Problem, config: SolverConfig) -> SolveResult:
    """Emit the clause set and run the configured solver on it."""
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
        fh.write(emit_smtlib(problem))
        path = fh.name
    try:
        return solve_file(path, config)
    finally:
        os.unlink(path)


def check_equisat(original: Problem, transformed: Problem,
                  config: SolverConfig) -> tuple[str, SolveResult, SolveResult]:
    """agree | disagree | inconclusive over the two solver verdicts."""
    r1 = solve(original, config.for_original())
    r2 = solve(transformed, config)
    definitive = {SAT, UNSAT}
    if r1.verdict in definitive and r2.verdict in definitive:
        return ("agree" if r1.verdict == r2.verdict else "disagree"), r1, r2
    return "inconclusive", r1, r2


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

@value_class
class BenchRow:
    name: str
    queries: int
    expected: str
    original: str
    original_secs: float
    transformed: str
    transformed_secs: float
    transform_secs: float
    ok: bool
    note: str = ""


@value_class
class BenchReport:
    rows: list[BenchRow]

    @property
    def failures(self) -> list[BenchRow]:
        return [r for r in self.rows if not r.ok]

    def to_text(self) -> str:
        cols = ("problem", "queries", "expected", "original", "o-sec",
                "transformed", "t-sec", "x-sec", "ok")
        data = [cols]
        for r in self.rows:
            data.append((r.name, str(r.queries), r.expected, r.original,
                         f"{r.original_secs:.2f}", r.transformed,
                         f"{r.transformed_secs:.2f}", f"{r.transform_secs:.2f}",
                         "yes" if r.ok else "NO"))
        widths = [max(len(row[i]) for row in data) for i in range(len(cols))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in data]
        lines.extend(f"{r.name}: {r.note}" for r in self.failures if r.note)
        lines.append(f"total {len(self.rows)}  failed {len(self.failures)}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["problem", "queries", "expected", "original",
                    "original_secs", "transformed", "transformed_secs",
                    "transform_secs", "ok", "note"])
        for r in self.rows:
            w.writerow([r.name, r.queries, r.expected, r.original,
                        f"{r.original_secs:.3f}", r.transformed,
                        f"{r.transformed_secs:.3f}", f"{r.transform_secs:.3f}",
                        int(r.ok), r.note])
        return out.getvalue()


def expected_tag(text: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%") and "expect:" in line:
            return line.split("expect:", 1)[1].strip()
    return ""


def bench_one(path: Path, config: SolverConfig) -> BenchRow:
    name = path.stem
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:  # not text, say
        return BenchRow(name, 0, "", "-", 0.0, "-", 0.0, 0.0, ok=False,
                        note=f"error: cannot read {path.name}: "
                             f"{getattr(e, 'strerror', None) or e}")
    expected = expected_tag(text)
    try:
        problem = parse_problem(text)
        engine = ConstraintEngine()
        try:
            t0 = time.monotonic()
            result = transform_problem(problem, engine,
                                       max_iterations=config.max_iterations)
            transform_secs = time.monotonic() - t0
        finally:
            engine.close()
        tp = transformed_problem(problem, result)
    except Exception as e:  # noqa: BLE001
        return BenchRow(name, 0, expected, "-", 0.0, "-", 0.0, 0.0,
                        ok=False, note=f"error: {e}")
    try:
        status, r_orig, r_tr = check_equisat(problem, tp, config)
    except RuntimeError as e:
        return BenchRow(name, len(problem.queries), expected, "-", 0.0, "-",
                        0.0, transform_secs, ok=False, note=f"error: {e}")
    # two definitive verdicts that differ are the soundness alarm
    note = (f"disagree (original={r_orig.verdict}, "
            f"transformed={r_tr.verdict})" if status == "disagree" else "")
    ok = not note and (not expected or r_tr.verdict == expected)
    return BenchRow(name, len(problem.queries), expected,
                    r_orig.verdict, r_orig.seconds,
                    r_tr.verdict, r_tr.seconds, transform_secs, ok, note)


def run_bench(corpus: str | Path, config: SolverConfig,
              jobs: int = 1) -> BenchReport:
    paths = sorted(Path(corpus).glob("*.chc"))
    rows: list[BenchRow] = []
    if jobs <= 1:
        rows = [bench_one(p, config) for p in paths]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda p: bench_one(p, config), paths))
    rows.sort(key=lambda r: r.name)
    return BenchReport(rows)


def write_reports(report: BenchReport, corpus: Path) -> tuple[Path, Path]:
    txt = corpus / "bench_report.txt"
    csvp = corpus / "bench_report.csv"
    txt.write_text(report.to_text(), encoding="utf-8")
    csvp.write_text(report.to_csv(), encoding="utf-8")
    return txt, csvp
