"""Constraint engine: satisfiability, entailment, projection, widening.

Sat/entailment queries go to an external SMT oracle, a child process
speaking SMT-LIB 2 over stdin/stdout (push/pop per query). The oracle
command is configurable; the default resolution order is

  1. the CHC_ORACLE environment variable (shell-split),
  2. a z3 binary on PATH (`z3 -in`),
  3. the bundled reference oracle (`python -m catafuse.refsolver.oracle`).

Each Oracle owns one child. Once a process has started a command's child
twice, every start also launches the next Oracle's child, so that child's
start-up runs while this one works; it is sent nothing until it is taken.
A child that replies `(error ...)` is dropped, and that query is unknown.

Verdicts are three-valued and the transformer treats unknown conservatively
(see the callers): never drop a clause or merge definitions without proof.

Projection eliminates integer variables in-process with refsolver.lia, the
one integer eliminator that the bundled QF core uses too; importing it does
not load the rest of that core.
"""

from __future__ import annotations

import atexit
import os
import select
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time

from .refsolver import lia
from .smtlib import datatype_block, mangle_sort, smt_formula
from .syntax import (
    FAnd, FComp, FEq, FFalse, FIff, FImp, FIte, FNot, FOr, FTrue,
    FVar, Formula, IntConst, SortTable, TRUE, FALSE, Var, as_lin, conjuncts,
    display_renaming, free_vars, lin, mk_and, mk_not, mk_or,
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

HOLDS = "holds"
FAILS = "fails"


class OracleError(Exception):
    """The external oracle is unreachable or broke protocol."""


# the time limit the oracle gets for each query
TIMEOUT_MS = 5000

# how much of a failed oracle's stderr an OracleError quotes
STDERR_TAIL_LINES = 5
STDERR_TAIL_BYTES = 4096


def default_oracle_cmd() -> list[str]:
    env = os.environ.get("CHC_ORACLE")
    if env:
        return shlex.split(env)
    z3 = shutil.which("z3")
    if z3:
        return [z3, "-in"]
    return [sys.executable, "-m", "catafuse.refsolver.oracle"]


def _spawn(cmd: list[str]) -> tuple[subprocess.Popen, object]:
    """A started oracle child and its stderr, an unnamed temporary file."""
    # a file, not a pipe: a chatty child can never block on a full pipe
    stderr = tempfile.TemporaryFile()
    try:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr, text=True, bufsize=1)
    except OSError as e:
        stderr.close()
        raise OracleError(f"cannot launch oracle {cmd}: {e}") from e
    return proc, stderr


def _discard(child: tuple[subprocess.Popen, object]) -> None:
    """Kill and reap a child from `_spawn`, and close its files."""
    proc, stderr = child
    proc.kill()
    proc.wait()
    try:
        proc.stdin.close()
    except OSError:  # what a broken pipe did not take is still buffered
        pass
    proc.stdout.close()
    stderr.close()


# One started, not yet used child per oracle command, kept once a command has
# started twice in this process. It has been sent nothing, so it carries no
# problem's state; it runs in the environment of the start that launched it.
_spares: dict[tuple[str, ...], tuple[subprocess.Popen, object]] = {}
_started: set[tuple[str, ...]] = set()
_spares_lock = threading.Lock()


@atexit.register
def _discard_spares() -> None:
    with _spares_lock:
        spares = list(_spares.values())
        _spares.clear()
    for child in spares:
        _discard(child)


class Oracle:
    """One child solver process; push/pop per query; thread-safe via a lock."""

    def __init__(self, cmd: list[str] | None = None) -> None:
        self.cmd = cmd or default_oracle_cmd()
        self.proc: subprocess.Popen | None = None
        self._stderr = None  # the child's stderr, an unnamed temporary file
        self.lock = threading.Lock()
        self._decls: list[str] = []

    def _start(self) -> None:
        key = tuple(self.cmd)
        with _spares_lock:
            spare = _spares.pop(key, None)
            again = key in _started
            _started.add(key)
        if spare is not None and spare[0].poll() is None:
            self.proc, self._stderr = spare
        else:
            if spare is not None:
                _discard(spare)
            self.proc, self._stderr = _spawn(self.cmd)
        if again:
            # this command starts more than once here: the next Oracle's
            # child starts now, while this one works
            fresh = _spawn(self.cmd)
            with _spares_lock:
                old = _spares.get(key)
                _spares[key] = fresh
            if old is not None:
                _discard(old)
        self._preamble()

    def _preamble(self) -> None:
        self._send("(set-option :print-success false)")
        self._send("(set-logic ALL)")
        for line in self._decls:
            self._send(line)

    def set_datatypes(self, sorts: SortTable) -> None:
        decls = datatype_block(sorts)
        if decls != self._decls:
            self._decls = decls
            if self.proc is not None:
                self._send("(reset)")
                self._preamble()

    def _send(self, line: str) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise self._failure(f"oracle pipe broken: {e}") from e

    def _failure(self, what: str) -> OracleError:
        """`what`, with the child's exit status and the end of its stderr."""
        assert self.proc is not None and self._stderr is not None
        try:
            status = f"exit status {self.proc.wait(timeout=1)}"
        except subprocess.TimeoutExpired:
            status = "still running"
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        # pread leaves the file offset, which the child shares, alone
        tail = os.pread(fd, STDERR_TAIL_BYTES, max(0, size - STDERR_TAIL_BYTES))
        lines = tail.decode(errors="replace").splitlines()[-STDERR_TAIL_LINES:]
        if not lines:
            return OracleError(f"{what} ({status}, nothing on stderr)")
        return OracleError(f"{what} ({status}); its stderr ends:\n"
                           + "\n".join(lines))

    def _read_verdict(self, deadline: float) -> str | None:
        """The child's verdict, or None for an `(error` reply."""
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            if self.proc.poll() is not None:
                raise self._failure("oracle process exited")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleError("oracle did not answer within the deadline")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        min(remaining, 0.5))
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise self._failure("oracle closed stdout")
            line = line.strip()
            if line in (SAT, UNSAT, UNKNOWN):
                return line
            if line.startswith("(error"):
                return None

    def check(self, formula: Formula) -> str:
        with self.lock:
            for attempt in (0, 1):
                if self.proc is None or self.proc.poll() is not None:
                    self._kill()  # releases a dead child's stderr file
                    self._start()
                try:
                    return self._query(formula)
                except OracleError:
                    self._kill()
                    if attempt:
                        raise
        raise OracleError("unreachable")

    def _query(self, formula: Formula) -> str:
        ren = display_renaming(formula)
        self._send("(push 1)")
        self._send(f"(set-option :timeout {TIMEOUT_MS})")
        for v in ren.mapping.values():
            self._send(f"(declare-const {v.name} {mangle_sort(v.sort)})")
        self._send(f"(assert {smt_formula(ren.formula(formula))})")
        self._send("(check-sat)")
        verdict = self._read_verdict(time.monotonic() + TIMEOUT_MS / 1000 + 10)
        if verdict is None:
            # a solver may still answer this check-sat after its error, and
            # that answer would be read as the next query's: drop the child
            self._kill()
            return UNKNOWN
        self._send("(pop 1)")
        return verdict

    def _kill(self) -> None:
        if self.proc is not None:
            _discard((self.proc, self._stderr))
            self.proc = self._stderr = None

    def close(self) -> None:
        with self.lock:
            if self.proc is not None and self.proc.poll() is None:
                try:
                    self._send("(exit)")
                except OracleError:
                    pass
            self._kill()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

_ATOMIC_OK = (FComp, FVar, FEq)


def is_atomic_conjunct(f: Formula) -> bool:
    """The granularity at which widening keeps or drops."""
    if isinstance(f, _ATOMIC_OK):
        return True
    if isinstance(f, FNot):
        return isinstance(f.arg, FVar)
    if isinstance(f, FIff):
        return is_atomic_conjunct(f.lhs) and is_atomic_conjunct(f.rhs)
    return False


class ConstraintEngine:
    def __init__(self, oracle: Oracle | None = None) -> None:
        self.oracle = oracle or Oracle()
        self._sat_cache: dict[Formula, str] = {}
        self._ent_cache: dict[tuple[Formula, Formula], str] = {}

    def set_sorts(self, sorts: SortTable) -> None:
        self.oracle.set_datatypes(sorts)

    def close(self) -> None:
        self.oracle.close()

    # -- satisfiability -------------------------------------------------------

    def is_satisfiable(self, c: Formula) -> str:
        c = simplify(c)
        if isinstance(c, FTrue):
            return SAT
        if isinstance(c, FFalse):
            return UNSAT
        hit = self._sat_cache.get(c)
        if hit is not None:
            return hit
        v = self.oracle.check(c)
        if v != UNKNOWN:
            self._sat_cache[c] = v
        return v

    def entails(self, c: Formula, d: Formula) -> str:
        """holds iff c & ~d is unsat; fails iff satisfiable; else unknown."""
        c = simplify(c)
        d = simplify(d)
        if isinstance(d, FTrue) or isinstance(c, FFalse) or c == d:
            return HOLDS
        key = (c, d)
        hit = self._ent_cache.get(key)
        if hit is not None:
            return hit
        v = self.oracle.check(mk_and(c, mk_not(d)))
        out = HOLDS if v == UNSAT else FAILS if v == SAT else UNKNOWN
        if out != UNKNOWN:
            self._ent_cache[key] = out
        return out

    def equivalent(self, c: Formula, d: Formula) -> bool:
        return self.entails(c, d) == HOLDS and self.entails(d, c) == HOLDS

    # -- generalization (widening) --------------------------------------------

    def generalize(self, d: Formula, c: Formula) -> Formula:
        """Widen d against c: keep exactly d's atomic conjuncts entailed by c."""
        d = simplify(d)
        parts = conjuncts(d)
        if not all(is_atomic_conjunct(p) for p in parts):
            return TRUE
        kept = [p for p in parts if self.entails(c, p) == HOLDS]
        return mk_and(*kept)

    # -- projection ------------------------------------------------------------

    def project(self, c: Formula, keep: set[Var]) -> Formula:
        c = simplify(c)
        if isinstance(c, (FTrue, FFalse)):
            return c
        if free_vars(c) <= keep:
            return c
        if self.is_satisfiable(c) == UNSAT:
            return FALSE
        parts = conjuncts(c)
        atomic = [p for p in parts if is_atomic_conjunct(p)]
        result = _fm_project(atomic, keep)
        if self.entails(c, result) == HOLDS:
            return result
        # fall back: drop every conjunct that mentions an eliminated variable
        kept = [p for p in atomic if free_vars(p) <= keep]
        result = mk_and(*kept)
        if self.entails(c, result) == HOLDS:
            return result
        return TRUE


def simplify(f: Formula) -> Formula:
    """Logically equivalent cleanup: unit elimination, flattening, double negation."""
    if isinstance(f, (FTrue, FFalse, FVar, FComp, FEq)):
        if isinstance(f, FComp) and isinstance(f.lhs, IntConst) \
                and isinstance(f.rhs, IntConst):
            ok = {"=": f.lhs.value == f.rhs.value,
                  "<": f.lhs.value < f.rhs.value,
                  "=<": f.lhs.value <= f.rhs.value,
                  ">=": f.lhs.value >= f.rhs.value,
                  ">": f.lhs.value > f.rhs.value}[f.rel]
            return TRUE if ok else FALSE
        if isinstance(f, FEq) and f.lhs == f.rhs:
            return TRUE
        return f
    if isinstance(f, FNot):
        a = simplify(f.arg)
        return mk_not(a)
    if isinstance(f, FAnd):
        return mk_and(*(simplify(a) for a in f.args))
    if isinstance(f, FOr):
        return mk_or(*(simplify(a) for a in f.args))
    if isinstance(f, FImp):
        lhs, rhs = simplify(f.lhs), simplify(f.rhs)
        if isinstance(lhs, FTrue):
            return rhs
        if isinstance(lhs, FFalse) or isinstance(rhs, FTrue):
            return TRUE
        if isinstance(rhs, FFalse):
            return mk_not(lhs)
        return FImp(lhs, rhs)
    if isinstance(f, FIff):
        lhs, rhs = simplify(f.lhs), simplify(f.rhs)
        if isinstance(lhs, FTrue):
            return rhs
        if isinstance(rhs, FTrue):
            return lhs
        if isinstance(lhs, FFalse):
            return mk_not(rhs)
        if isinstance(rhs, FFalse):
            return mk_not(lhs)
        if lhs == rhs:
            return TRUE
        return FIff(lhs, rhs)
    if isinstance(f, FIte):
        c, a, b = simplify(f.cond), simplify(f.then), simplify(f.els)
        if isinstance(c, FTrue):
            return a
        if isinstance(c, FFalse):
            return b
        return FIte(c, a, b)
    raise TypeError(f"unknown formula {f!r}")


def _fm_project(atomic: list[Formula], keep: set[Var]) -> Formula:
    """lia.eliminate over the integer conjuncts; other conjuncts survive
    only when they already live inside `keep`. Always an over-approximation."""
    eqs, les, others = [], [], []
    for p in atomic:
        if isinstance(p, FComp):
            try:
                g = lia.canon_atom(p)
            except TypeError:  # not linear
                pass
            else:
                (eqs if g.rel == "=" else les).append(as_lin(g.lhs))
                continue
        if free_vars(p) <= keep:
            others.append(p)
    try:
        eqs, les, _ = lia.eliminate(eqs, les, lambda v: v not in keep,
                                    lia.Budget())
    except lia.Infeasible:
        return FALSE
    except lia.Overflow:
        return mk_and(*others)  # caller re-checks and falls back
    rows = [FComp("=", lin(c, k), IntConst(0)) for c, k in eqs]
    rows += [FComp("=<", lin(c, k), IntConst(0)) for c, k in les]
    return simplify(mk_and(*others, *rows))
