"""A fixed pure-Python workload that measures how fast the machine runs now.

The shared virtual machines the benchmark runs on change speed by 10-50 %
from one second to the next and over minutes.  `sample()` times one pass of
a fixed search over a product graph, made of the same interpreter
operations as posaut's own searches (tuples, dicts, sets, lists, small
loops).  It does not touch posaut, so a change to the program cannot move
it.  `SpeedLog` takes a sample before every timed call of the program; a
call's time divided by its speed factor, the median of the samples around
it over REFERENCE_S, is the time it would take at the reference speed.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

# median of `sample()` on the 2-vCPU machine of the reference figures in
# README.md; it only sets the scale of the reported times
REFERENCE_S = 0.0025

_N = 30
_LETTERS = ("a", "b", "c")


def _graph():
    rng = random.Random("yardstick")
    return {(q, a): (rng.randrange(_N), rng.randint(0, 3)) for q in range(_N) for a in _LETTERS}


_GRAPH = _graph()


def _search() -> int:
    """Breadth-first search of the product of the graph with itself,
    keeping the parent of every pair and the highest priority seen."""
    start = (0, 1)
    parent = {start: None}
    top = {}
    queue = deque([start])
    while queue:
        p, q = pair = queue.popleft()
        for a in _LETTERS:
            p2, c1 = _GRAPH[(p, a)]
            q2, c2 = _GRAPH[(q, a)]
            nxt = (p2, q2)
            top[nxt] = max(top.get(nxt, 0), c1, c2)
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return len(parent)


def sample() -> float:
    """Seconds one search takes now."""
    t0 = time.perf_counter()
    _search()
    return time.perf_counter() - t0


class SpeedLog:
    """Yardstick samples taken between timed calls."""

    # samples on each side of a call that set its speed factor: with calls
    # of 0.15-0.2 s, the quartile spread of their times fell from 0.23-0.25
    # to 0.07-0.09 with 3 samples a side, and less far with 8 or more
    WIDTH = 3

    def __init__(self):
        self.samples: list[float] = []

    def mark(self) -> int:
        """Take a sample before a timed call; the call's place in the log."""
        self.samples.append(sample())
        return len(self.samples)

    def finish(self) -> None:
        """Samples after the last call, so that it is bracketed too."""
        for _ in range(self.WIDTH):
            self.samples.append(sample())

    def factor(self, mark: int) -> float:
        """How much slower than the reference the machine ran around `mark`."""
        near = self.samples[max(0, mark - self.WIDTH):mark + self.WIDTH]
        return statistics.median(near) / REFERENCE_S

    def speed(self) -> float:
        """The run's median speed factor."""
        return statistics.median(self.samples) / REFERENCE_S
