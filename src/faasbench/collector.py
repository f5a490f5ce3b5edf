"""Pausing Python's cyclic garbage collector around allocation-heavy work.

The simulator and the analyzer allocate objects by the hundred thousand and
build no reference cycles, yet every allocation threshold they pass sets off
a collection that scans all surviving objects to free nothing.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Run the block with the cyclic collector disabled, then restore the
    caller's collector state.

    On the way out, ``gc.freeze(); gc.unfreeze()`` moves what survived into
    the oldest generation without scanning it, so the paused allocations do
    not set off a full collection right after. A caller's frozen objects are
    left frozen: then the move is skipped.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()
