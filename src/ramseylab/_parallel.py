"""The one-task runner that the instance scan and backtracking go through.

Every search is one in-order depth-first walk on the calling thread that
counts its nodes in one counter, so a query always gives the same report
and the same budget verdict.  The instance scan and the backtracking
engine each hand their whole walk to :func:`ordered_first_hit` as a single
task; it only runs it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple


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
