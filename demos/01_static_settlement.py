"""Settling a one-shot group: five friends, five borrowings, two payments.

The running example: 1 borrowed from 2 and 4, 2 from 3, 3 from 1, and 4
from 5.  Only the net balances matter for settlement, and here they can
be cleared with just two payments.
"""

from debtclear import (
    Borrowing,
    balances_of,
    oracle_max_zero_partition,
    plan_settles,
    solve_static,
)

borrowings = [
    Borrowing(1, 2, 10),
    Borrowing(2, 3, 5),
    Borrowing(3, 1, 5),
    Borrowing(1, 4, 5),
    Borrowing(4, 5, 10),
]

print("borrowings:")
for b in borrowings:
    print(f"  {b.borrower} owes {b.lender} {b.amount}")

# net balance = total owed minus total lent; the whole problem lives here
print("\nnet balances:", balances_of(borrowings))

plan = solve_static(borrowings, n=6)
print(f"\nminimal plan ({len(plan)} payments):")
for t in plan:
    print(f"  {t.sender} pays {t.receiver} {t.amount}")

# a plan is correct iff it reproduces the balance vector exactly
print("\nplan reproduces the balances:", plan_settles(balances_of(borrowings), plan))

# the exhaustive reference solver confirms two payments is optimal
res = oracle_max_zero_partition(balances_of(borrowings))
print(f"oracle: {res.max_parts} zero-sum groups -> {res.min_transactions} payments")
