import pytest

from debtclear import bits, ledger as ledger_mod
from debtclear import (
    AmountError,
    Borrowing,
    CapacityError,
    Ledger,
    LoopError,
    SplitMix64,
    Transaction,
    UnknownNodeError,
    balances_of,
    is_equivalent,
    oracle_max_zero_partition,
    plan_settles,
    solve_static,
    solve_static_with_stats,
)

from _support import EXAMPLE1, EXAMPLE1_BALANCES, engine_digest, random_instance


def example_ledger(arcs=EXAMPLE1):
    led = Ledger()
    for _ in range(6):
        led.insert_node()
    for b in arcs:
        led.insert_arc(b.borrower, b.lender, b.amount)
    return led


# ---- insert_node ------------------------------------------------------


def test_insert_node_sequential_ids():
    led = Ledger()
    assert led.insert_node() == 0
    assert led.insert_node() == 1
    assert led.debts == {0: 0, 1: 0}


def test_insert_node_leaves_engine_untouched():
    led = example_ledger()
    before = engine_digest(led.engine)
    led.insert_node()
    assert engine_digest(led.engine) == before


# ---- insert_arc ---------------------------------------------------------


def test_insert_arcs_worked_example():
    led = example_ledger()
    assert led.debts == {0: 0, **EXAMPLE1_BALANCES}
    assert {u for u in led.debts if led.debts[u] != 0} == {1, 2, 4, 5}


def test_insert_arc_cancellation():
    led = Ledger()
    a, b = led.insert_node(), led.insert_node()
    led.insert_arc(a, b, 10)
    led.insert_arc(b, a, 10)
    assert led.engine.live_mask == 0


def test_insert_arc_errors_are_distinct():
    led = Ledger(capacity=2)
    a, b, c = led.insert_node(), led.insert_node(), led.insert_node()
    with pytest.raises(LoopError):
        led.insert_arc(a, a, 5)
    with pytest.raises(AmountError):
        led.insert_arc(a, b, 0)
    with pytest.raises(UnknownNodeError):
        led.insert_arc(a, 99, 5)
    led.insert_arc(a, b, 5)
    with pytest.raises(CapacityError):
        led.insert_arc(c, b, 3)


# ---- remove_arc ------------------------------------------------------------


def remove_arc_fixture(du, dv):
    led = Ledger()
    u, v, sink = led.insert_node(), led.insert_node(), led.insert_node()
    for node, d in ((u, du), (v, dv)):
        if d > 0:
            led.insert_arc(node, sink, d)
        elif d < 0:
            led.insert_arc(sink, node, -d)
    return led, u, v


def test_remove_arc_opposite_signs_pays_back():
    led, u, v = remove_arc_fixture(10, -4)
    led.remove_arc(u, v)
    assert led.debts[u] == 6 and led.debts[v] == 0


def test_remove_arc_same_sign_is_noop():
    led, u, v = remove_arc_fixture(3, 7)
    before = engine_digest(led.engine)
    led.remove_arc(u, v)
    assert engine_digest(led.engine) == before


def test_remove_arc_zero_balance_is_noop():
    led, u, v = remove_arc_fixture(0, -5)
    before = engine_digest(led.engine)
    led.remove_arc(u, v)
    assert engine_digest(led.engine) == before


def test_remove_arc_unknown_node():
    led = Ledger()
    led.insert_node()
    with pytest.raises(UnknownNodeError):
        led.remove_arc(0, 42)


# ---- remove_node -------------------------------------------------------------


def removal_ledger():
    led = Ledger()
    ids = [led.insert_node() for _ in range(6)]  # use 1..5
    led.insert_arc(1, 3, 2)
    led.insert_arc(2, 3, 2)
    led.insert_arc(4, 5, 5)
    return led


def test_remove_node_minimal_group():
    led = removal_ledger()
    assert led.debts[4] == 5
    txns = led.remove_node(4)
    assert txns == [Transaction(4, 5, 5)]
    assert 4 not in led.live_nodes
    assert 5 in led.live_nodes and led.debts[5] == 0
    assert {u for u, d in led.debts.items() if d != 0} == {1, 2, 3}


def test_remove_node_zero_balance():
    led = example_ledger()
    assert led.remove_node(3) == []
    assert 3 not in led.live_nodes
    assert led.remove_node(0) == []


def test_remove_node_unknown():
    led = Ledger()
    with pytest.raises(UnknownNodeError):
        led.remove_node(0)


def test_remove_node_shrinks_vstar_exactly_by_group():
    rng = SplitMix64(99)
    for _ in range(20):
        n, arcs = random_instance(rng.next_u64() % 1000, max_n=8, max_m=14, max_w=5)
        led = Ledger()
        ids = [led.insert_node() for _ in range(n)]
        for b in arcs:
            led.insert_arc(b.borrower, b.lender, b.amount)
        debts = led.debts
        nonzero = [u for u, d in debts.items() if d != 0]
        if not nonzero:
            continue
        victim = nonzero[rng.randint(0, len(nonzero) - 1)]
        before_vstar = led.engine.vstar_size
        txns = led.remove_node(victim)
        group = {victim}
        for t in txns:
            group.add(t.sender)
            group.add(t.receiver)
        assert led.engine.vstar_size == before_vstar - len(group)
        after = led.debts
        for u in after:
            if u in group:
                assert after[u] == 0
            else:
                assert after[u] == debts[u]


def stream_ledger(seed=5, n=12, arcs=40):
    rng = SplitMix64(seed)
    led = Ledger()
    for _ in range(n):
        led.insert_node()
    for _ in range(arcs):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            led.insert_arc(u, v, rng.randint(1, 4))
    return led


def test_remove_node_builds_no_zero_set_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zero-set list built on the departure path")

    led = stream_ledger()
    monkeypatch.setattr(type(led.engine), "zero_sets", refuse)
    monkeypatch.setattr(ledger_mod, "clear_non_atomic", refuse)
    settled = 0
    for u in sorted(led.live_nodes):
        settled += len(led.remove_node(u))
    assert settled > 0 and not led.live_nodes


def test_remove_node_over_budget_changes_nothing(monkeypatch):
    led = stream_ledger()
    u = next(w for w, d in led.debts.items() if d)
    before = (engine_digest(led.engine), led.debts, led.live_nodes)
    monkeypatch.setattr(bits, "TABLE_BYTES_MAX", 8)
    with pytest.raises(CapacityError):
        led.remove_node(u)
    assert (engine_digest(led.engine), led.debts, led.live_nodes) == before


# ---- query ----------------------------------------------------------------------


def test_query_worked_example():
    led = example_ledger()
    plan = led.query()
    assert len(plan) == 2
    assert list(plan) == [Transaction(1, 5, 10), Transaction(4, 2, 5)]
    assert plan_settles(led.debts, plan)


def test_query_after_three_arcs():
    led = example_ledger(EXAMPLE1[:3])
    plan = led.query()
    assert list(plan) == [Transaction(1, 2, 5)]


def test_query_empty_ledger():
    assert len(Ledger().query()) == 0


def test_query_is_pure():
    led = example_ledger()
    before = engine_digest(led.engine)
    led.query()
    led.query_with_stats()
    assert engine_digest(led.engine) == before


def test_query_stats_counts():
    led = example_ledger()
    plan, stats = led.query_with_stats()
    assert stats.vstar_size == 4
    assert stats.zero_set_count == 3  # {1,5}, {2,4}, and the full set
    assert stats.reduced_zero_set_count == 0  # pairs consumed everything


# ---- solve_static ------------------------------------------------------------------


def test_solve_static_worked_example():
    plan = solve_static(EXAMPLE1, 6)
    assert list(plan) == [Transaction(1, 5, 10), Transaction(4, 2, 5)]
    assert is_equivalent(EXAMPLE1, plan)


def test_solve_static_out_of_range_node():
    with pytest.raises(UnknownNodeError):
        solve_static([Borrowing(0, 5, 3)], 3)


def test_solve_static_stats_match_query_stats():
    _, s_static = solve_static_with_stats(EXAMPLE1, 6)
    _, s_query = example_ledger().query_with_stats()
    assert s_static == s_query


# ---- cross-checks -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_dynamic_static_agreement_on_prefixes(seed):
    n, arcs = random_instance(seed, max_n=8, max_m=12, max_w=6)
    led = Ledger()
    ids = [led.insert_node() for _ in range(n)]
    for k, b in enumerate(arcs, start=1):
        led.insert_arc(b.borrower, b.lender, b.amount)
        assert len(led.query()) == len(solve_static(arcs[:k], n))


@pytest.mark.parametrize("seed", range(30))
def test_plans_are_optimal_and_equivalent(seed):
    n, arcs = random_instance(seed, max_n=9, max_m=20, max_w=8)
    plan = solve_static(arcs, n)
    assert is_equivalent(arcs, plan)
    oracle = oracle_max_zero_partition(balances_of(arcs))
    assert len(plan) == oracle.min_transactions


@pytest.mark.parametrize("seed", range(20))
def test_query_stays_optimal_under_mixed_updates(seed):
    rng = SplitMix64(seed * 31 + 7)
    led = Ledger()
    pool = [led.insert_node() for _ in range(8)]
    for _ in range(40):
        a = pool[rng.randint(0, 7)]
        b = pool[rng.randint(0, 6)]
        if b == a:
            b = pool[7]
        roll = rng.randint(0, 99)
        if roll < 65:
            led.insert_arc(a, b, rng.randint(1, 8))
        elif roll < 85:
            led.remove_arc(a, b)
        else:
            pool.remove(a)
            led.remove_node(a)
            pool.append(led.insert_node())
        plan = led.query()
        assert plan_settles(led.debts, plan)
        oracle = oracle_max_zero_partition(led.debts)
        assert len(plan) == oracle.min_transactions


def test_identical_histories_give_identical_plans():
    def build():
        rng = SplitMix64(404)
        led = Ledger()
        ids = [led.insert_node() for _ in range(7)]
        for _ in range(25):
            u = ids[rng.randint(0, 6)]
            v = ids[rng.randint(0, 5)]
            if v == u:
                v = ids[6]
            led.insert_arc(u, v, rng.randint(1, 9))
        return led

    assert build().query() == build().query()


def test_retired_node_rejected_everywhere():
    led = removal_ledger()
    led.remove_node(4)
    with pytest.raises(UnknownNodeError):
        led.insert_arc(4, 1, 3)
    with pytest.raises(UnknownNodeError):
        led.remove_arc(1, 4)
    with pytest.raises(UnknownNodeError):
        led.remove_node(4)
