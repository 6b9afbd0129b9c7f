"""Shared exception types and resource budgets.

Every long-running operation takes an explicit budget (class count, sieve
length, matrix candidates).  Defaults can be raised through environment
variables without touching call sites:

    HEIGHTCOUNT_MAX_CLASSES   lattice classes per enumeration   (default 10^7)
    HEIGHTCOUNT_MAX_SIEVE     coefficient sieve length          (default 10^6)
    HEIGHTCOUNT_MAX_CELLS     integer matrix candidates         (default 10^9)

Exceeding a budget raises :class:`BudgetError` before the work starts, from
an a-priori size estimate, never from a timeout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class HeightCountError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HeightCountError, ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetError(HeightCountError, RuntimeError):
    """Estimated cost of an operation exceeds the configured budget."""


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Budgets:
    """Resource limits for enumeration-style operations."""

    max_classes: int = 10**7
    max_sieve: int = 10**6
    max_cells: int = 10**9

    @staticmethod
    def from_env() -> "Budgets":
        return Budgets(
            max_classes=_env_int("HEIGHTCOUNT_MAX_CLASSES", 10**7),
            max_sieve=_env_int("HEIGHTCOUNT_MAX_SIEVE", 10**6),
            max_cells=_env_int("HEIGHTCOUNT_MAX_CELLS", 10**9),
        )


def default_budgets() -> Budgets:
    """Budgets resolved from the environment at call time."""
    return Budgets.from_env()


def check_budget(kind: str, estimate: int, limit: int | None, field: str) -> None:
    """Raise BudgetError when estimate exceeds limit.

    limit is a per-call override; None means the `field` budget of
    `default_budgets()` ("max_classes", "max_sieve" or "max_cells").
    """
    if limit is None:
        limit = getattr(default_budgets(), field)
    if estimate > limit:
        raise BudgetError(
            f"estimated {kind} count {estimate} exceeds budget {limit}; "
            f"raise the corresponding HEIGHTCOUNT_MAX_* variable to override"
        )
