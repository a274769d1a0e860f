"""Correctness gate, run on recorded outputs after the timed loop.

Each function returns a list of problems; every problem counts as one
failed operation.  Plans are checked with ``plan_settles`` against the
balances they were asked for; plan sizes are compared with the exact
oracle where k is at most ``ORACLE_K`` (it takes seconds at k = 16), and
above that static against dynamic on the same balances.
"""

from __future__ import annotations

ORACLE_K = 12


def nonzero(debts) -> dict[int, int]:
    return {u: d for u, d in debts.items() if d != 0}


def check_plan(dc, debts, plan, what: str) -> list[str]:
    if dc.plan_settles(debts, plan):
        return []
    return [f"{what}: plan {plan!r} does not settle {nonzero(debts)}"]


def check_sizes(dc, debts, static_size: int, dynamic_size: int) -> list[str]:
    """Static and dynamic plan sizes agree, and match the oracle at small k."""
    if static_size != dynamic_size:
        return [f"plan sizes differ: solve_static {static_size}, query {dynamic_size}"]
    if len(nonzero(debts)) <= ORACLE_K:
        best = dc.oracle_max_zero_partition(debts).min_transactions
        if best != static_size:
            return [f"plan size {static_size} is not the optimum {best}"]
    return []


def check_departure(dc, before, after, leaver: int, txns) -> list[str]:
    """``remove_node(leaver)`` settled a zero-sum group that holds it.

    ``before`` and ``after`` are ``Ledger.debts`` around the call; the
    leaver is no longer live afterwards.  The payments must settle exactly
    the balances that changed, each changed balance must now be zero, and
    a group of s members takes at most s - 1 payments.
    """
    if before.get(leaver, 0) == 0:
        return [] if not txns else [f"departure of zero-balance node {leaver} paid {txns!r}"]
    if leaver in after:
        return [f"node {leaver} is still live after remove_node"]
    settled = nonzero({u: before.get(u, 0) - after.get(u, 0) for u in before.keys() | after.keys()})
    problems = []
    if any(after.get(u, 0) != 0 for u in settled):
        problems.append(f"group {sorted(settled)} was not fully settled")
    if not dc.plan_settles(settled, dc.TransactionPlan(txns)) or len(txns) > len(settled) - 1:
        problems.append(f"payments {txns!r} do not settle group {settled}")
    return problems
