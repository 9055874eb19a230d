"""Peak memory of a process tree, read from ``/proc`` (no psutil).

``VmHWM`` is each process's own resident-set high-water mark.  Exec
workers appear and respawn during a run, so a background thread samples
the tree periodically and keeps every process's highest reading; the
tree's peak is the sum over every process ever seen.
"""

from __future__ import annotations

import os
import threading


def _status_field(pid: int, key: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])  # kB
    except (OSError, ValueError, IndexError):
        return None
    return None


def vm_hwm_kb(pid: int) -> int | None:
    return _status_field(pid, "VmHWM")


def _parent_map() -> dict[int, int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1:
            parents[int(entry)] = int(fields[1])
    return parents


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    parents = _parent_map()
    children: dict[int, list[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


class TreeSampler:
    """Track per-process peak RSS of a process tree while it runs."""

    def __init__(self, root: int, interval_s: float = 0.5) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-rss")

    def sample(self) -> None:
        for pid in tree_pids(self.root):
            kb = vm_hwm_kb(pid)
            if kb is not None and kb > self.peak_kb.get(pid, 0):
                self.peak_kb[pid] = kb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0

    @property
    def processes(self) -> int:
        return len(self.peak_kb)
