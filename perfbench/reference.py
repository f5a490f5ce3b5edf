"""A fixed piece of pure-Python work that times the CPU the benchmark runs on.

On a shared virtual machine the speed of a virtual CPU changes from one
second to the next, with whatever else the host runs. run.py times this
work just before and just after each measured process, on the same pinned
CPU, and scales the process's times by the ratio of REFERENCE_S to the
mean of the two readings. The work imports nothing from faasbench, so no
change to the program can move it.
"""

from __future__ import annotations

import time

# the time reference_work takes on the host the benchmark was calibrated on
# (see README.md, Host speed); scaled times read as seconds at that speed
REFERENCE_S = 0.3

ROWS = 60_000


def reference_work() -> float:
    """Allocate, index, sort, scan and format about 60,000 small records."""
    x = 12345
    rows = []
    by_key: dict[int, list] = {}
    for i in range(ROWS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        row = {"id": i, "key": x % 5000, "t": x / 7.0, "name": f"fn-{x % 97}"}
        rows.append(row)
        by_key.setdefault(row["key"], []).append(row)
    rows.sort(key=lambda r: (r["key"], r["t"]))
    total = 0.0
    j = 0
    for _ in range(ROWS):  # strided reads over the whole working set
        j = (j + 7919) % ROWS
        total += rows[j]["t"]
    for group in by_key.values():
        total += sum(r["t"] for r in group) / len(group)
    text = "\n".join(f"{r['id']} {r['name']} {r['t']:.3f}" for r in rows[::4])
    return total + len(text)


def reference_s() -> float:
    """Wall time of one reference_work() call, in seconds."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
