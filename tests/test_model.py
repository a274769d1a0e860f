import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import debtclear
from debtclear import (
    AmountError,
    Borrowing,
    LoopError,
    MoneyOverflowError,
    Transaction,
    TransactionPlan,
    UnknownNodeError,
    balances_of,
    plan_settles,
)

from _support import EXAMPLE1, EXAMPLE1_BALANCES


def test_balances_of_worked_example():
    assert balances_of(EXAMPLE1) == EXAMPLE1_BALANCES


def test_is_equivalent_accepts_published_plan():
    plan = TransactionPlan([Transaction(1, 5, 10), Transaction(4, 2, 5)])
    assert plan_settles(balances_of(EXAMPLE1), plan)


def test_is_equivalent_rejects_partial_plan():
    plan = TransactionPlan([Transaction(1, 5, 10)])
    assert not plan_settles(balances_of(EXAMPLE1), plan)


def test_is_equivalent_empty():
    assert plan_settles(balances_of([]), TransactionPlan())


def test_is_equivalent_order_invariant():
    plan_fwd = TransactionPlan([Transaction(4, 2, 5), Transaction(1, 5, 10)])
    assert plan_settles(balances_of(reversed(EXAMPLE1)), plan_fwd)


arc_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=100),
    ).filter(lambda t: t[0] != t[1]),
    max_size=30,
)


@given(arc_lists)
def test_balances_conserve_money(raw):
    arcs = [Borrowing(*t) for t in raw]
    assert sum(balances_of(arcs).values()) == 0


@given(arc_lists, st.integers(0, 7), st.integers(0, 7), st.integers(1, 100))
def test_single_borrowing_antisymmetry(raw, u, v, x):
    if u == v:
        return
    arcs = [Borrowing(*t) for t in raw]
    before = balances_of(arcs)
    after = balances_of(arcs + [Borrowing(u, v, x)])
    keys = set(before) | set(after)
    for k in keys:
        delta = after.get(k, 0) - before.get(k, 0)
        assert delta == (x if k == u else -x if k == v else 0)


def test_borrowing_validation():
    with pytest.raises(LoopError):
        Borrowing(3, 3, 5)
    with pytest.raises(AmountError):
        Borrowing(0, 1, 0)
    with pytest.raises(AmountError):
        Borrowing(0, 1, -4)
    with pytest.raises(AmountError):
        Borrowing(0, 1, 2.5)
    with pytest.raises(UnknownNodeError):
        Borrowing(-1, 1, 4)
    with pytest.raises(MoneyOverflowError):
        Borrowing(0, 1, 2**63)


@pytest.mark.parametrize("cls", [Borrowing, Transaction])
@pytest.mark.parametrize("u", [0.5, 1.0, True, False, np.int64(1), "1", None])
def test_node_ids_must_be_non_negative_ints(cls, u):
    with pytest.raises(UnknownNodeError):
        cls(u, 2, 3)
    with pytest.raises(UnknownNodeError):
        cls(2, u, 3)


def test_balance_overflow_detected():
    big = 2**62
    with pytest.raises(MoneyOverflowError):
        balances_of([Borrowing(0, 1, big), Borrowing(0, 2, big), Borrowing(0, 3, big)])


def test_plan_merges_duplicate_pairs():
    plan = TransactionPlan(
        [Transaction(2, 1, 4), Transaction(0, 1, 3), Transaction(2, 1, 6)]
    )
    assert [(t.sender, t.receiver, t.amount) for t in plan] == [(0, 1, 3), (2, 1, 10)]


def test_plan_is_sorted_and_comparable():
    a = TransactionPlan([Transaction(4, 2, 5), Transaction(1, 5, 10)])
    b = TransactionPlan([Transaction(1, 5, 10), Transaction(4, 2, 5)])
    assert a == b
    assert [(t.sender, t.receiver) for t in a] == [(1, 5), (4, 2)]


def test_plan_settles_matches_balance_vector():
    plan = TransactionPlan([Transaction(1, 5, 10), Transaction(4, 2, 5)])
    assert plan_settles(EXAMPLE1_BALANCES, plan)
    assert not plan_settles({1: 10, 5: -10}, plan)


def test_public_names():
    assert debtclear.__all__ == sorted(set(debtclear.__all__))
    for name in debtclear.__all__:
        getattr(debtclear, name)
    for name in ("absolute_debt", "is_equivalent", "case_spec", "PartitionResult"):
        assert not hasattr(debtclear, name), name
