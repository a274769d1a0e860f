"""Exhaustive reference solver for desk-scale verification.

Independent of the engine and partition modules: subset sums are
recomputed here by direct per-bit accumulation and the maximal zero-sum
partition is found by complete enumeration over all submasks, so a bug
shared with the fast path would have to be coincidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ContractError, MoneyOverflowError, OracleLimitError
from .model import MONEY_MAX, MONEY_MIN, Money, NodeId

ORACLE_LIMIT = 16


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum plus one witness partition.

    ``witness`` masks index the nonzero-balance nodes in ascending node
    order (bit i = i-th such node).
    """

    max_parts: int
    min_transactions: int
    witness: list[int]


def oracle_max_zero_partition(debts: Mapping[NodeId, Money]) -> OracleResult:
    """Exact maximal zero-sum partition by brute force.

    Guarded to at most ``ORACLE_LIMIT`` nonzero balances; the search is
    exponential (all submasks of all masks) and is meant for validating
    the fast path on small instances, not for production use.  Raises
    ``MoneyOverflowError`` when the positive or the negative balances
    total outside the int64 range, where the table of subset sums would
    wrap.
    """
    nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
    k = len(nonzero)
    if k > ORACLE_LIMIT:
        raise OracleLimitError(
            f"{k} nonzero balances exceed the oracle guard of {ORACLE_LIMIT}"
        )
    if k == 0:
        return OracleResult(0, 0, [])
    # every subset sum lies between the two totals, summed here as Python ints
    pos = sum(d for _, d in nonzero if d > 0)
    neg = sum(d for _, d in nonzero if d < 0)
    if pos > MONEY_MAX or neg < MONEY_MIN:
        raise MoneyOverflowError("balances would exceed the signed 64-bit range")
    if sum(d for _, d in nonzero) != 0:
        raise ContractError("balances do not sum to zero; no partition exists")

    vals = np.array([d for _, d in nonzero], dtype=np.int64)
    size = 1 << k
    totals = np.zeros(size, dtype=np.int64)
    for j in range(k):
        half = totals.reshape(-1, 2 << j)
        half[:, (1 << j):] += vals[j]
    total = totals.tolist()

    best = [-1] * size
    pick = [0] * size
    best[0] = 0
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        b = -1
        bp = 0
        s = rest
        while True:
            part = s | low
            if total[part] == 0:
                prev = best[mask ^ part]
                if prev >= 0 and prev + 1 > b:
                    b = prev + 1
                    bp = part
            if s == 0:
                break
            s = (s - 1) & rest
        if b > 0:
            best[mask] = b
            pick[mask] = bp

    full = size - 1
    witness = []
    m = full
    while m:
        witness.append(pick[m])
        m ^= pick[m]
    return OracleResult(best[full], k - best[full], witness)
