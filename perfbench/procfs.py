"""Reading a server's process tree from ``/proc``, from outside.

The server and its workers are found as the spawned PID and its
descendants (by parent PID), never through any API of the program, so the
numbers hold whatever the service does internally.
"""

from __future__ import annotations

import os
from typing import Dict, List

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command name
    (index 0 is the state, 1 the parent PID, 11/12 utime/stime)."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int) -> List[int]:
    """PIDs of every living descendant of *root* (children, grandchildren...)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we were listing
        children.setdefault(parent, []).append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def tree(root: int) -> List[int]:
    """*root* followed by its living descendants."""
    return [root, *descendants(root)]


def cpu_seconds(pids: List[int]) -> float:
    """Summed user+system CPU seconds of the living processes in *pids*."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: List[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of *pids*, in MB (2**20 bytes)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def alive(pid: int) -> bool:
    """Whether *pid* still exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False
