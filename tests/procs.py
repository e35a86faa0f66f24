"""A process's children as Linux lists them under /proc."""

from __future__ import annotations

import os
from pathlib import Path

# each thread of a process lists the children it started in this file
HAS_CHILDREN_LISTS = Path(f"/proc/self/task/{os.getpid()}/children").exists()


def own_children(pid: int) -> list[int]:
    """The processes that `pid` started and has not reaped; none once `pid`
    is gone."""
    return [int(c) for f in Path(f"/proc/{pid}/task").glob("*/children")
            for c in f.read_text().split()]
