"""Reference constraint oracle: SMT-LIB 2 over stdin/stdout.

Run as `python -m catafuse.refsolver.oracle`. Understands the command subset
the constraint engine sends (set-logic / set-option :timeout / declare-const
/ declare-fun (0-ary) / declare-datatypes / assert / push / pop / reset /
check-sat / echo / exit) and answers sat, unsat, or unknown per check-sat.
A command it cannot handle is answered `(error ...)`, and a check-sat is
unknown while an assertion that failed is in scope.
Any real SMT solver is a drop-in replacement via the CHC_ORACLE setting.
"""

from __future__ import annotations

import sys
import time

from ..syntax import mk_and
from . import qfcore
from .smtparse import SmtContext, UnsupportedSmt, commands


class OracleSession:
    def __init__(self) -> None:
        self.ctx = SmtContext()
        self.stack: list[list] = [[]]
        self.timeout_ms: int | None = None

    def reset(self) -> None:
        self.ctx = SmtContext()
        self.stack = [[]]

    def handle(self, cmd) -> str | None:
        if not isinstance(cmd, list) or not cmd:
            # what did not parse as a command may have held an assertion
            self.stack[-1].append("unparsed")
            raise UnsupportedSmt(f"bad command {cmd}")
        op = cmd[0]
        if op in ("set-logic", "set-info"):
            return None
        if op == "set-option":
            if len(cmd) == 3 and cmd[1] == ":timeout":
                self.timeout_ms = int(cmd[2])
            return None
        if op == "declare-datatypes":
            self.ctx.declare_datatypes(cmd[1], cmd[2])
            return None
        if op == "declare-const":
            self.ctx.declare_fun(cmd[1], [], cmd[2])
            return None
        if op == "declare-fun":
            self.ctx.declare_fun(cmd[1], cmd[2], cmd[3])
            return None
        if op == "assert":
            try:
                if _quantified(cmd[1]):
                    # parse/sort-check only; the QF core does not decide these
                    self.ctx.to_formula(cmd[1], {}, check_only=True)
                    self.stack[-1].append("quantified")
                else:
                    self.stack[-1].append(self.ctx.to_formula(cmd[1], {}))
            except Exception:
                # check-sat must not answer sat without this assertion
                self.stack[-1].append("unparsed")
                raise
            return None
        if op == "push":
            for _ in range(int(cmd[1]) if len(cmd) > 1 else 1):
                self.stack.append([])
            return None
        if op == "pop":
            for _ in range(int(cmd[1]) if len(cmd) > 1 else 1):
                if len(self.stack) > 1:
                    self.stack.pop()
            return None
        if op == "reset":
            self.reset()
            return None
        if op == "echo":
            return cmd[1].strip('"')
        if op == "check-sat":
            asserts = [a for frame in self.stack for a in frame]
            if any(isinstance(a, str) for a in asserts):
                return "unknown"
            deadline = None
            if self.timeout_ms is not None:
                deadline = time.monotonic() + self.timeout_ms / 1000.0
            return qfcore.check_sat(mk_and(*asserts),
                                    qfcore.Budget(deadline=deadline))
        if op == "exit":
            return "exit"
        raise UnsupportedSmt(f"unsupported command {op}")


def _quantified(e) -> bool:
    if isinstance(e, list):
        if e and e[0] in ("forall", "exists"):
            return True
        return any(_quantified(x) for x in e)
    return False


def main() -> int:
    session = OracleSession()
    for cmd in commands(sys.stdin):
        try:
            out = session.handle(cmd)
        except UnsupportedSmt as e:
            print(f'(error "{e}")', flush=True)
            continue
        except Exception as e:  # never die mid-protocol
            print(f'(error "internal: {e}")', flush=True)
            continue
        if out == "exit":
            return 0
        if out is not None:
            print(out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
