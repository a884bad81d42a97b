"""Run configuration and the letter budget.

The budget counts letters materialized by word-producing operations.  It is a
truncation guard, not a correctness condition: when it runs out the sweep
stops early and reports itself incomplete.  Reading letters already charged
is free: a peel check reads stream bytes whose growth was charged, so the
charges of a level do not depend on which streams the star search visits.
A stream charges each growth in one sum, once the blocks are appended.

The images phi^j(a) and inverse blocks phi^-j(c) cached on the map are
charged once per budget and level (Budget.charge_levels), whoever built them,
so a run's charges do not depend on what ran before on the map.
"""

from __future__ import annotations

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**7
MIN_BUDGET = 10**4

# Fraction of the total budget a single level may plan to spend.  Levels whose
# estimated cost exceeds this are processed in the cheap blank-affix-only
# mode, which keeps default runs fast and deterministic.
LEVEL_FRACTION = 16


class Budget:
    """Mutable letter counter with a hard limit and a record of charges."""

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = int(limit)
        self.used = 0
        self.charged = {}  # the highest level of each key charged so far

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)

    def charge(self, n) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                f"letter budget exhausted ({self.used} > {self.limit})"
            )

    def charge_levels(self, key, k, size):
        """Charge size(j) for each level j <= k of key not yet charged,
        lowest first.  Key a names phi^j(a), key -c the blocks phi^-j(c)."""
        for j in range(self.charged.get(key, 0) + 1, k + 1):
            self.charge(size(j))
            self.charged[key] = j


class RunConfig:
    """Options for a full sweep.  max_k defaults to 4N - 4 at run time."""

    def __init__(self, max_k=None, early_exit=False, budget=DEFAULT_BUDGET):
        if max_k is not None and max_k < 1:
            raise ValueError("max_k must be at least 1")
        if budget < MIN_BUDGET:
            raise ValueError(f"budget must be at least {MIN_BUDGET}")
        self.max_k = max_k
        self.early_exit = early_exit
        self.budget = budget

    def level_cap(self) -> int:
        return max(MIN_BUDGET, self.budget // LEVEL_FRACTION)

    def make_budget(self) -> Budget:
        return Budget(self.budget)


def resolved_max_k(config, rank) -> int:
    if config.max_k is not None:
        return config.max_k
    return max(1, 4 * rank - 4)
