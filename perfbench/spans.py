"""Outside-in span recorder for the traced benchmark run.

A span wraps one public call into a layer of the engine, taken from the
benchmark's side of the boundary: the call's result is materialized inside
the span, so the span's duration is the layer's wall time including the
barrier that ends it.  Each span records its name, start, end, parent, the
run id shared by every span of one replay, rows out, ``size_bytes()`` of the
result, and the machine's CPU busy share over the span, read from
``/proc/stat``.  Spans stay in memory; ``write_spans`` writes them as JSON.

``MemSampler`` samples the proportional set size (PSS) of this process and
every descendant (the Ray head, raylet and workers in local mode) and keeps
the peak.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager


def cpu_jiffies() -> tuple[int, int, int]:
    """(busy, total, steal) jiffies summed over all CPUs of the machine."""
    with open("/proc/stat") as f:
        # user nice system idle iowait irq softirq steal; guest time is
        # already counted in user and nice
        vals = [int(v) for v in f.readline().split()[1:9]]
    idle, steal = vals[3] + vals[4], vals[7]
    total = sum(vals)
    return total - idle - steal, total, steal


def steal_share(j0: tuple[int, int, int], j1: tuple[int, int, int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    d_total = j1[1] - j0[1]
    return (j1[2] - j0[2]) / d_total if d_total > 0 else 0.0


def steal_free(seconds: float, j0: tuple[int, int, int],
               j1: tuple[int, int, int]) -> float:
    """``seconds`` of wall time with the hypervisor's CPU steal taken out.

    On a shared host the hypervisor takes this machine's CPUs away while
    they have work to do; ``/proc/stat`` counts that time as steal, and every
    computation in the interval is stretched by (busy + steal) / busy.  The
    steal-free time is the wall time scaled by busy / (busy + steal): what
    the interval takes when no CPU time is stolen.  Without steal it is the
    wall time.  Other guests' load changes from minute to minute, so this,
    not the raw wall time, repeats from run to run.
    """
    busy, steal = j1[0] - j0[0], j1[2] - j0[2]
    return seconds * busy / (busy + steal) if busy + steal > 0 else seconds


class Stopwatch:
    """Times one interval: wall seconds and steal-free seconds."""

    def __init__(self):
        self.j0 = cpu_jiffies()
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        wall = time.perf_counter() - self.t0
        return wall, steal_free(wall, self.j0, cpu_jiffies())


def busy_share(j0: tuple[int, int, int], j1: tuple[int, int, int]) -> float:
    """Share of the machine's CPU time this guest spent busy."""
    d_total = j1[1] - j0[1]
    return (j1[0] - j0[0]) / d_total if d_total > 0 else 0.0


class Tracer:
    """The spans of one traced replay, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the body calls ``observe`` for what the call
        produced."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "rows": None,
            "bytes": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        j0 = cpu_jiffies()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            j1 = cpu_jiffies()
            rec["busy"] = busy_share(j0, j1)
            rec["steal_free_s"] = steal_free(rec["end"] - rec["start"], j0, j1)
            self._stack.pop()

    @staticmethod
    def observe(rec: dict, ds) -> None:
        """Add a materialized Ray dataset's rows and bytes to a span."""
        rec["rows"] = (rec["rows"] or 0) + ds.count()
        rec["bytes"] = (rec["bytes"] or 0) + ds.size_bytes()

    def layer(self, name: str) -> dict:
        """Steal-free seconds, busy share and rows of the span called
        ``name``; zeros when the replay made no such call."""
        for s in self.spans:
            if s["name"] == name:
                return {"s": s["steal_free_s"], "busy": s["busy"],
                        "rows": s["rows"] or 0}
        return {"s": 0.0, "busy": 0.0, "rows": 0}


def write_spans(path: str, tracers: list[Tracer], extra: dict) -> None:
    """Every tracer's spans as one JSON file, times in seconds from the
    first span."""
    spans = [s for tr in tracers for s in tr.spans]
    t0 = min((s["start"] for s in spans), default=0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({**extra, "spans": [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                                      for s in spans]}, f, indent=1)


def _parents() -> dict[int, int]:
    """pid -> parent pid of every process visible in /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        out[int(d)] = int(stat[stat.rindex(")") + 2:].split()[1])
    return out


def tree_pss_bytes(root: int) -> int:
    """PSS of ``root`` and all its descendants, in bytes."""
    kids: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        kids.setdefault(ppid, []).append(pid)
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


class MemSampler:
    """Background thread keeping the peak process-tree PSS."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_pss_bytes(me))
            self._stop.wait(self.interval)

    def __enter__(self) -> "MemSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("memory sampler did not stop")
