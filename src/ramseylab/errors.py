"""Shared exception types."""

from __future__ import annotations


class RamseyError(Exception):
    """Base class for all workbench errors."""


class BudgetExceededError(RamseyError):
    """A search or enumeration ran past its node/assignment budget;
    ``nodes`` is what the search had spent (0 where nodes are not counted)."""

    def __init__(self, message: str = "", nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes

    @classmethod
    def past(cls, limit: int) -> "BudgetExceededError":
        """The error of a search whose node budget is ``limit``, raised at
        the node after it, node ``limit + 1`` (node 1 for a negative
        limit)."""
        return cls(f"node budget {limit} exceeded", nodes=max(limit, 0) + 1)


class ValueOverflowError(RamseyError):
    """An arithmetic result exceeded the supported 64-bit width."""


class OutOfBoxError(RamseyError):
    """A value left the box [1..N] where it was required to stay."""


class CompositionOutOfBoxError(OutOfBoxError):
    """A composed value escaped the box.  Distinct from a color mismatch:
    callers must not conflate "invalid input" with "witness fails"."""


class MalformedInputError(RamseyError):
    """A file or serialized object failed structural validation."""
