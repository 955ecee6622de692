"""Deterministic work splitting.

Searches split their tree into an ordered list of chunks (by leading witness
coordinate or by a fixed-depth prefix frontier; the instance scan is a
single chunk) and run them in that order
on the calling thread, stopping at the first chunk that finds something.
Node counts cover the chunks up to and including that one, and a budget is
spent in the same order, so a query always gives the same report and the
same budget verdict.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .errors import BudgetExceededError


class NodeBudget:
    """Node counter with a hard limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0

    def spend(self, n: int = 1) -> None:
        self.count += n
        if self.count > self.limit:
            raise BudgetExceededError(f"node budget {self.limit} exceeded",
                                      nodes=self.count)


def ordered_first_hit(tasks: Sequence[Callable[[], Tuple[Optional[object], int]]],
                      workers: int = 1) -> Tuple[Optional[object], int]:
    """Run tasks (each returning ``(result_or_None, nodes)``) in order and
    return the first non-None result plus the node total over the tasks
    run.  ``workers`` is accepted and ignored."""
    nodes = 0
    for task in tasks:
        result, n = task()
        nodes += n
        if result is not None:
            return result, nodes
    return None, nodes
