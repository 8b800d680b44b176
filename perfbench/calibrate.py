"""A fixed slice of pure-Python work that measures how fast the host runs now.

On a shared virtual machine the same code can run half again as slow from
one second to the next, as other tenants come and go.  The benchmark times
one slice before each timed batch and reports throughput in units of the
slice's time, so that the host's swings, which slow the batch and the slice
next to it alike, cancel.

The slice uses only the standard library and none of hazcom, so no change
to the program can change it.  Its mix follows the batches' own: objects
with attributes, dict inserts and lookups, string formatting, sorting with a
key function, and the ``json`` codec.  It runs with the cyclic garbage
collector paused, so its time does not depend on how much the process holds
(it frees all it allocates, leaving the collector's count where it was).
"""

from __future__ import annotations

import gc
import json
import time

ROWS = [{"id": f"r{i}", "values": [i, i * 0.5, str(i)], "tags": {"k": i % 7}} for i in range(120)]
CHECKSUM = 3696


class _Item:
    __slots__ = ("key", "rank", "label")

    def __init__(self, key: str, rank: int, label: str) -> None:
        self.key = key
        self.rank = rank
        self.label = label


def _work() -> int:
    checksum = 0
    for round_ in range(12):
        index = {}
        for i in range(400):
            item = _Item(f"{round_}:{i}", (i * 7919) % 113, "x" * (i % 9))
            index[item.key] = item
        ordered = sorted(index.values(), key=lambda it: (it.rank, it.key))
        checksum += sum(len(it.label) for it in ordered[:50])
        checksum += len(json.loads(json.dumps(ROWS, sort_keys=True)))
    return checksum


def slice_seconds() -> float:
    """Wall time of one slice of the fixed work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = _work()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration slice gave checksum {checksum}, not {CHECKSUM}")
    return elapsed
