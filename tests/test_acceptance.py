"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import time
from contextlib import contextmanager

from debtclear import (
    CaseSpec,
    Ledger,
    SplitMix64,
    Transaction,
    balances_of,
    clear_non_atomic,
    clear_pairs,
    generate_case,
    max_partition,
    oracle_max_zero_partition,
    plan_settles,
    run_benchmark,
    solve_static,
)
from debtclear.engine import SubsetSumEngine

from _support import EXAMPLE1, audit_sums, engine_digest, random_instance, slot_balances


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def best_of(fn, runs=3):
    fn()  # warmup
    best = min(_timed(fn) for _ in range(runs))
    return best


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_1_worked_example():
    with criterion(1, "worked example optimum"):
        plan = solve_static(EXAMPLE1, 6)
        assert len(plan) == 2
        assert plan_settles(balances_of(EXAMPLE1), plan)
        assert list(plan) == [Transaction(1, 5, 10), Transaction(4, 2, 5)]
        assert best_of(lambda: solve_static(EXAMPLE1, 6)) < 0.010


def test_criterion_2_mid_sequence_query():
    with criterion(2, "query after three arcs"):
        led = Ledger()
        for _ in range(6):
            led.insert_node()
        for b in EXAMPLE1[:3]:
            led.insert_arc(b.borrower, b.lender, b.amount)
        assert len(led.query()) == 1
        assert best_of(led.query) < 0.010


def test_criterion_3_known_optima():
    with criterion(3, "generated structures hit known optima"):
        expected = {1: 1, 2: 0, 3: 7, 4: 19, 5: 15, 6: 10, 13: 15, 14: 15}
        for test_id, size in expected.items():
            n, arcs = generate_case(CaseSpec(test_id))
            t0 = time.perf_counter()
            plan = solve_static(arcs, n)
            elapsed = time.perf_counter() - t0
            assert len(plan) == size, f"test {test_id}: {len(plan)} != {size}"
            assert elapsed < 5.0, f"test {test_id} took {elapsed:.2f}s"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "200 random instances match the oracle"):
        t0 = time.perf_counter()
        for seed in range(200):
            n, arcs = random_instance(seed, max_n=9, max_m=30, max_w=10)
            plan = solve_static(arcs, n)
            res = oracle_max_zero_partition(balances_of(arcs))
            assert len(plan) == res.min_transactions, f"seed {seed}"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_heuristic_safety():
    with criterion(5, "reductions preserve the part count"):
        t0 = time.perf_counter()
        for seed in range(100):
            n, arcs = random_instance(seed + 1000, max_n=12, max_m=30, max_w=10)
            eng = SubsetSumEngine()
            eng.rebuild_from_debts(balances_of(arcs))
            live = eng.live_mask
            s0 = eng.zero_sets()
            plain = max_partition(live, s0, universe=s0).part_count
            atoms_only = max_partition(live, clear_non_atomic(s0), universe=s0).part_count
            pairs, reduced = clear_pairs(slot_balances(eng), s0)
            both = (
                len(pairs)
                + max_partition(
                    live - sum(pairs),
                    clear_non_atomic(reduced),
                    universe=reduced,
                ).part_count
            )
            assert plain == atoms_only == both, f"seed {seed}"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_dynamic_static_agreement():
    with criterion(6, "per-prefix query equals static solve"):
        t0 = time.perf_counter()
        for test_id in range(1, 9):
            n, arcs = generate_case(CaseSpec(test_id))
            led = Ledger()
            for _ in range(n):
                led.insert_node()
            for k, b in enumerate(arcs, start=1):
                led.insert_arc(b.borrower, b.lender, b.amount)
                before = engine_digest(led.engine)
                query_size = len(led.query())
                assert engine_digest(led.engine) == before, f"test {test_id} arc {k}"
                static_size = len(solve_static(arcs[:k], n))
                assert query_size == static_size, f"test {test_id} arc {k}"
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_sums_ground_truth():
    with criterion(7, "1000 mixed operations keep sums exact"):
        rng = SplitMix64(777)
        led = Ledger()
        pool = [led.insert_node() for _ in range(12)]
        t0 = time.perf_counter()
        for _ in range(1000):
            roll = rng.randint(0, 99)
            a = pool[rng.randint(0, 11)]
            b = pool[rng.randint(0, 10)]
            if b == a:
                b = pool[11]
            if roll < 70:
                led.insert_arc(a, b, rng.randint(1, 9))
            elif roll < 85:
                led.remove_arc(a, b)
            else:
                pool.remove(a)
                led.remove_node(a)
                pool.append(led.insert_node())
            assert audit_sums(led.engine)
            assert led.engine.subset_sum(led.engine.live_mask) == 0
            assert led.engine.live_mask == (1 << led.engine.vstar_size) - 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_remove_node_contract():
    with criterion(8, "node removal stays globally optimal"):
        led = Ledger()
        for _ in range(6):
            led.insert_node()
        led.insert_arc(1, 3, 2)
        led.insert_arc(2, 3, 2)
        led.insert_arc(4, 5, 5)
        pre_optimum = len(led.query())
        settle = led.remove_node(4)
        assert len(settle) == 1
        post = len(led.query())
        assert post == 2
        assert len(settle) + post == pre_optimum == 3


def test_criterion_9_heuristic_effectiveness():
    with criterion(9, "reductions shrink the zero-set list"):
        report = run_benchmark([CaseSpec(5)], repetitions=1, mode="per-arc")
        _, row = report.rows
        assert row.algorithm == "dynamic-incremental"
        assert row.avg_s0_reduced < row.avg_s0
