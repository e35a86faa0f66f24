"""Reference constraint oracle: SMT-LIB 2 over stdin/stdout.

Run as `python -m catafuse.refsolver.oracle`. Reads, through
`smtparse.Session`, the commands the constraint engine sends (set-logic /
set-option :timeout / declare-const / declare-fun / declare-datatypes /
assert / push / pop / reset / check-sat / exit) and answers sat, unsat, or
unknown per check-sat. A command it cannot take gets one `(error ...)`
line (`internal:` for its own faults). A check-sat is unknown while a
refused or quantified assertion, which is only sort-checked, or lines
that did not parse are in scope: in their push frame only.
Any real SMT solver is a drop-in replacement via the CHC_ORACLE setting.
"""

from __future__ import annotations

import sys
import time

from ..syntax import mk_and
from . import qfcore
from .smtparse import Session, SmtContext, UnsupportedSmt, commands


def _read(ctx: SmtContext, e):
    """The assertion `e` as the QF core decides it, or None for a quantified
    one, which the QF core does not decide: it is only sort-checked."""
    if _quantified(e):
        ctx.to_formula(e, {}, check_only=True)
        return None
    return ctx.to_formula(e, {})


def _quantified(e) -> bool:
    if isinstance(e, list):
        if e and e[0] in ("forall", "exists"):
            return True
        return any(_quantified(x) for x in e)
    return False


def main() -> int:
    session = Session(_read)
    timeout_ms: int | None = None
    for cmd in commands(sys.stdin):
        try:
            op = session.take(cmd)
            if op == "set-option" and len(cmd) == 3 and cmd[1] == ":timeout":
                timeout_ms = int(cmd[2])
            elif op == "check-sat":
                asserted = session.asserted()
                deadline = None if timeout_ms is None else \
                    time.monotonic() + timeout_ms / 1000.0
                print("unknown" if asserted is None else qfcore.check_sat(
                    mk_and(*asserted), qfcore.Budget(deadline=deadline)),
                    flush=True)
            elif op == "exit":
                return 0
        except UnsupportedSmt as e:
            print(f'(error "{e}")', flush=True)
        except Exception as e:  # never die mid-protocol
            print(f'(error "internal: {e}")', flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
