"""Constraint engine: satisfiability, entailment, projection, widening.

Sat/entailment queries go to an external SMT oracle, a child process
speaking SMT-LIB 2 over stdin/stdout (push/pop per query). The oracle
command is configurable; the default resolution order is

  1. the CHC_ORACLE environment variable (shell-split),
  2. a z3 binary on PATH (`z3 -in`),
  3. the bundled reference oracle (`catafuse.refsolver.oracle`).

Children that carry no problem's state wait on one list per command:
`lend_child` takes a live one or starts one, `give_back` puts one back, and
those still waiting at exit are killed. Each Oracle owns the child it is
lent, ended by `close`; once a process has started a command's child twice,
every start also gives back one child started ahead, sent nothing, so the
next start's start-up runs while this one works (`Oracle._start`). The
bundled CHC solver's sessions go back once they have answered and been sent
`(reset)`. Both bundled children start without `site` (`python -S`),
which they need nothing from, and get this package's root on their path
from their command (`bundled_cmd`), not from the caller's environment. Their
command also names this user's private bytecode cache (`bytecode_cache`), so
each module is compiled once per source version, not at every start, and no
bytecode is ever written beside the sources. Both speak SMT-LIB through
`Child`, which sends commands and reads verdicts against a deadline.
A child that replies `(error ...)` is dropped, and that query is unknown.
A child that refuses the problem's datatype declarations is dropped too,
and every query over those declarations is unknown without another start.
Messages name a bundled child by its module (`command_name`).

Each engine keeps one verdict memo, keyed by the SMT-LIB text the oracle is
sent (`query_text`): a query printed under its display names, so queries
equal up to renaming share a key, and equal text gets the child's same
verdict. An entailment c |= d shares the entry of its query c & ~d. An
unknown verdict is never memoised.

Verdicts are three-valued and the transformer treats unknown conservatively
(see the callers): never drop a clause or merge definitions without proof.

Projection eliminates integer variables in-process with refsolver.lia, the
one integer eliminator that the bundled QF core uses too; importing it does
not load the rest of that core. Every row it derives is implied by the rows
it came from, so a projection is implied by its input without a check.
"""

from __future__ import annotations

import atexit
import os
import select
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from .refsolver import lia
from .smtlib import datatype_block, mangle_sort, smt_formula
from .syntax import (
    FAnd, FComp, FEq, FFalse, FIff, FImp, FIte, FNot, FOr, FTrue,
    FVar, Formula, IntConst, SortTable, TRUE, FALSE, Var, as_lin, conjuncts,
    display_names, eval_formula, free_vars, lin, mk_and, mk_not, mk_or,
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

HOLDS = "holds"
FAILS = "fails"


class OracleError(Exception):
    """A child (oracle or CHC solver session) is unreachable or broke
    protocol."""


class Overrun(OracleError):
    """A child did not answer within its deadline."""


# the time limit the oracle gets for each query
TIMEOUT_MS = 5000

# how much of a failed oracle's stderr an OracleError quotes
STDERR_TAIL_LINES = 5
STDERR_TAIL_BYTES = 4096


# `python -S -c _LAUNCH <package root> <bytecode cache> <module> [args]` runs
# the module as `python -m <module> [args]` would, with the package root first
# on its path and, unless the cache is "", its bytecode kept in that cache
_LAUNCH = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
           "sys.pycache_prefix = sys.argv.pop(1) or None; "
           "sys.dont_write_bytecode = sys.dont_write_bytecode "
           "and not sys.pycache_prefix; "
           "runpy.run_module(sys.argv.pop(1), run_name='__main__', "
           "alter_sys=True)")

_bytecode_dir: str | None = None
_bytecode_lock = threading.Lock()


def bytecode_cache() -> str:
    """The bundled children's bytecode cache (their `sys.pycache_prefix`):
    this user's private directory in the temporary directory, made on the
    first call in this process, or "" when it cannot be made or trusted.
    Sharing it is safe: the import system checks each `.pyc` against its
    source's mtime and size, names it by the interpreter's cache tag, keeps
    it under the source's absolute path and writes it atomically."""
    global _bytecode_dir
    with _bytecode_lock:
        if _bytecode_dir is None:
            _bytecode_dir = private_dir(os.path.join(
                tempfile.gettempdir(), f"catafuse-{os.getuid()}-bytecode"))
        return _bytecode_dir


def private_dir(path: str) -> str:
    """`path`, made if missing, if it is a directory (not a link) that this
    user owns and no one else may enter; else "". Bytecode from a directory
    that another user could write would run that user's code."""
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return ""
    try:
        st = os.lstat(path)
    except OSError:
        return ""
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() \
            and not st.st_mode & 0o077:
        return path
    return ""


def bundled_cmd(module: str) -> list[str]:
    """The command that starts one of the bundled children: without `site`,
    which costs each start tens of milliseconds and which they need nothing
    from, with this package found where the parent found it, and with its
    bytecode read from (or, the first time, written to) `bytecode_cache`
    instead of compiled at every start."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-S", "-c", _LAUNCH, root, bytecode_cache(),
            module]


def command_name(cmd: list[str]) -> str:
    """How messages name a command: one from `bundled_cmd` by its module
    and arguments, not by its launcher source."""
    if cmd[1:4] == ["-S", "-c", _LAUNCH]:
        return " ".join(cmd[6:]) + " (bundled)"
    return " ".join(cmd)


def default_oracle_cmd() -> list[str]:
    env = os.environ.get("CHC_ORACLE")
    if env:
        return shlex.split(env)
    z3 = shutil.which("z3")
    if z3:
        return [z3, "-in"]
    return bundled_cmd("catafuse.refsolver.oracle")


class Child(NamedTuple):
    """A started child and its stderr, an unnamed temporary file. The oracle
    and the bundled CHC solver's session both speak SMT-LIB to it a line at
    a time and read one verdict line per check-sat."""
    proc: subprocess.Popen
    stderr: object

    def send(self, text: str) -> None:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
        except OSError as e:  # a broken pipe, most often
            raise self.failure(f"pipe to {command_name(self.proc.args)} "
                               f"broken: {e}") from e

    def failure(self, what: str) -> OracleError:
        """`what`, with the child's exit status and the end of its stderr."""
        try:
            status = f"exit status {self.proc.wait(timeout=1)}"
        except subprocess.TimeoutExpired:
            status = "still running"
        lines = stderr_tail(self.stderr)
        if not lines:
            return OracleError(f"{what} ({status}, nothing on stderr)")
        return OracleError(f"{what} ({status}); its stderr ends:\n"
                           + "\n".join(lines))

    def read_verdict(self, deadline: float) -> str | None:
        """The child's next verdict, or None for an `(error` reply. Raises
        Overrun at the deadline, and OracleError once the child is gone."""
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Overrun(f"{command_name(self.proc.args)} did not "
                              "answer within the deadline")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        min(remaining, 0.5))
            if not ready:
                if self.proc.poll() is not None:
                    raise self.failure(f"{command_name(self.proc.args)} "
                                       "exited")
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise self.failure(f"{command_name(self.proc.args)} exited")
            line = line.strip()
            if line in (SAT, UNSAT, UNKNOWN):
                return line
            if line.startswith("(error"):
                return None

    def discard(self) -> None:
        """Kill and reap the child, and close its files."""
        self.proc.kill()
        self.proc.wait()
        try:
            self.proc.stdin.close()
        except OSError:  # what a broken pipe did not take is still buffered
            pass
        self.proc.stdout.close()
        self.stderr.close()


def _spawn(cmd: list[str]) -> Child:
    # stderr is a file, not a pipe: a chatty child can never block on it
    stderr = tempfile.TemporaryFile()
    try:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr, text=True, bufsize=1)
    except OSError as e:
        stderr.close()
        raise OracleError(f"cannot launch {command_name(cmd)}: {e}") from e
    return Child(proc, stderr)


def stderr_tail(stderr) -> list[str]:
    """The last lines a child from `_spawn` wrote to its stderr."""
    fd = stderr.fileno()
    size = os.fstat(fd).st_size
    # pread leaves the file offset, which the child shares, alone
    tail = os.pread(fd, STDERR_TAIL_BYTES, max(0, size - STDERR_TAIL_BYTES))
    return tail.decode(errors="replace").splitlines()[-STDERR_TAIL_LINES:]


# Children waiting to be used, per command; none carries a problem's state.
# Each is an oracle child started ahead and sent nothing, which runs in the
# environment of the start that launched it, or a CHC solver session that
# has answered its last script and been sent `(reset)`. `_started` holds the
# oracle commands already started in this process.
_idle: dict[tuple[str, ...], list[Child]] = {}
_started: set[tuple[str, ...]] = set()
_waiting_lock = threading.Lock()


@atexit.register
def _discard_waiting() -> None:
    with _waiting_lock:
        waiting = [c for cs in _idle.values() for c in cs]
        _idle.clear()
    for child in waiting:
        child.discard()


def lend_child(cmd: list[str]) -> Child:
    """A waiting child of `cmd` that is still alive, else a new one."""
    key = tuple(cmd)
    while True:
        with _waiting_lock:
            idle = _idle.get(key)
            child = idle.pop() if idle else None
        if child is None:
            return _spawn(cmd)
        if child.proc.poll() is None:
            return child
        child.discard()


def give_back(cmd: list[str], child: Child) -> None:
    """Put a child of `cmd` that carries no problem's state on its waiting
    list."""
    with _waiting_lock:
        _idle.setdefault(tuple(cmd), []).append(child)


def query_text(q: Formula) -> str:
    """The SMT-LIB lines that pose q to an oracle, under q's display names:
    a `(declare-const ...)` per variable, then `(assert ...)`. Queries
    equal up to renaming print alike."""
    names = display_names(q)
    decls = "".join(f"(declare-const {n} {mangle_sort(v.sort)})\n"
                    for v, n in names.items())
    return f"{decls}(assert {smt_formula(q, names)})"


class Oracle:
    """One child solver process; push/pop per query; thread-safe via a lock."""

    def __init__(self, cmd: list[str] | None = None) -> None:
        self.cmd = cmd or default_oracle_cmd()
        self.child: Child | None = None
        self.lock = threading.Lock()
        self._decls: list[str] = []
        # the child refused `_decls`: every query over them is unknown
        self._refused = False

    @property
    def proc(self) -> subprocess.Popen | None:
        return None if self.child is None else self.child.proc

    def _start(self) -> None:
        """Lend this Oracle a child. From the command's second start in this
        process on, also start one child ahead, unless one is waiting, so
        that the next start's start-up runs while this one works. Only for
        a command whose children all get the same input: that child is
        started before anyone knows what it will be sent."""
        key = tuple(self.cmd)
        self.child = lend_child(self.cmd)
        with _waiting_lock:
            ahead = key in _started and not _idle.get(key)
            _started.add(key)
        if ahead:
            try:
                give_back(self.cmd, _spawn(self.cmd))
            except OracleError:
                self._kill()
                raise
        self._preamble()

    def _preamble(self) -> None:
        assert self.child is not None
        self.child.send("(set-option :print-success false)")
        self.child.send("(set-logic ALL)")
        if not self._decls:
            return
        for line in self._decls:
            self.child.send(line)
        # an `(error` before this check's answer is a refused declaration;
        # the answer would then still be in the pipe, so drop the child
        self.child.send("(check-sat)")
        if self.child.read_verdict(time.monotonic() + TIMEOUT_MS / 1000
                                   + 10) is None:
            self._refused = True
            self._kill()

    def set_datatypes(self, sorts: SortTable) -> None:
        decls = datatype_block(sorts)
        if decls != self._decls:
            self._decls = decls
            self._refused = False
            if self.child is not None:
                self.child.send("(reset)")
                self._preamble()

    def check(self, formula: Formula) -> str:
        with self.lock:
            for attempt in (0, 1):
                if self.child is None or self.child.proc.poll() is not None:
                    self._kill()  # releases a dead child's stderr file
                    if not self._refused:
                        self._start()
                if self._refused:
                    return UNKNOWN
                try:
                    return self._query(formula)
                except OracleError:
                    self._kill()
                    if attempt:
                        raise
        raise OracleError("unreachable")

    def _query(self, formula: Formula) -> str:
        assert self.child is not None
        # one write: the child reads the whole query at once
        self.child.send(f"(push 1)\n(set-option :timeout {TIMEOUT_MS})\n"
                        f"{query_text(formula)}\n(check-sat)")
        verdict = self.child.read_verdict(
            time.monotonic() + TIMEOUT_MS / 1000 + 10)
        if verdict is None:
            # a solver may still answer this check-sat after its error, and
            # that answer would be read as the next query's: drop the child
            self._kill()
            return UNKNOWN
        self.child.send("(pop 1)")
        return verdict

    def _kill(self) -> None:
        if self.child is not None:
            self.child.discard()
            self.child = None

    def close(self) -> None:
        with self.lock:
            if self.child is not None and self.child.proc.poll() is None:
                try:
                    self.child.send("(exit)")
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
        # query_text -> sat/unsat (see the module docstring)
        self._sat_cache: dict[str, str] = {}

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
        return self._check(c)

    def _check(self, q: Formula) -> str:
        """The oracle's verdict on q, memoised by `query_text(q)`: the text
        the oracle sends its child, so equal keys get equal verdicts."""
        key = query_text(q)
        hit = self._sat_cache.get(key)
        if hit is not None:
            return hit
        v = self.oracle.check(q)
        if v != UNKNOWN:
            self._sat_cache[key] = v
        return v

    def entails(self, c: Formula, d: Formula) -> str:
        """holds iff c & ~d is unsat; fails iff satisfiable; else unknown."""
        c = simplify(c)
        d = simplify(d)
        if isinstance(d, FTrue) or isinstance(c, FFalse) or c == d:
            return HOLDS
        v = self._check(mk_and(c, mk_not(d)))
        return HOLDS if v == UNSAT else FAILS if v == SAT else UNKNOWN

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
        return _fm_project(atomic, keep)


def simplify(f: Formula) -> Formula:
    """Logically equivalent cleanup: unit elimination, flattening, double negation."""
    if isinstance(f, (FTrue, FFalse, FVar, FComp, FEq)):
        if isinstance(f, FComp) and isinstance(f.lhs, IntConst) \
                and isinstance(f.rhs, IntConst):
            return TRUE if eval_formula(f, {}) else FALSE
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
    only when they already live inside `keep`. Always an over-approximation
    of the conjunction of `atomic`."""
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
        return mk_and(*others)
    rows = [FComp("=", lin(c, k), IntConst(0)) for c, k in eqs]
    rows += [FComp("=<", lin(c, k), IntConst(0)) for c, k in les]
    return simplify(mk_and(*others, *rows))
