"""Shared exception types and resource budgets.

Every long-running operation takes an explicit budget (class count, sieve
length, census cells).  Defaults can be raised through environment
variables without touching call sites:

    HEIGHTCOUNT_MAX_CLASSES   lattice classes per enumeration   (default 10^7)
    HEIGHTCOUNT_MAX_SIEVE     coefficient sieve length          (default 10^6)
    HEIGHTCOUNT_MAX_CELLS     (e, F) cells the census walks     (default 10^9)

Exceeding a budget raises :class:`BudgetError` before the work starts, from
an a-priori size estimate or an exact count, never from a timeout.
"""

from __future__ import annotations

import os


class HeightCountError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HeightCountError, ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetError(HeightCountError, RuntimeError):
    """Estimated cost of an operation exceeds the configured budget."""


# the label, environment variable and default behind each budget field
_BUDGETS = {
    "max_classes": ("lattice class", "HEIGHTCOUNT_MAX_CLASSES", 10**7),
    "max_sieve": ("sieve", "HEIGHTCOUNT_MAX_SIEVE", 10**6),
    "max_cells": ("census cell", "HEIGHTCOUNT_MAX_CELLS", 10**9),
}


def check_budget(field: str, estimate: int, limit: int | None) -> None:
    """Raise BudgetError, naming the label of `field`, when estimate exceeds limit.

    field is "max_classes", "max_sieve" or "max_cells".  limit is a
    per-call override; None reads the one environment variable behind
    field, or its default when the variable is unset.
    """
    kind, name, default = _BUDGETS[field]
    if limit is None:
        raw = os.environ.get(name, str(default))
        try:
            limit = int(raw)
        except ValueError as exc:
            raise DomainError(f"{name} must be an integer, got {raw!r}") from exc
        if limit <= 0:
            raise DomainError(f"{name} must be positive, got {limit}")
    if estimate > limit:
        raise BudgetError(
            f"estimated {kind} count {estimate} exceeds budget {limit}; "
            f"raise the corresponding HEIGHTCOUNT_MAX_* variable to override"
        )
