"""Exact reference solver for verification, by a chain DP.

Independent of the engine and partition modules: subset sums are
recomputed here by per-bit accumulation.  Adding the members of L one at
a time, the zero-sum sets along the chain are nested and cut L into as
many zero-sum parts, and every partition arises from some chain, so

    f(S) = [sum(S) = 0] + max over i in S of f(S \\ {i}),   f(empty) = 0,

and h(L) = f(L), the most zero-sum parts L splits into: k gathers per
popcount layer, O(k * 2^k) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping

import numpy as np

from .errors import ContractError, MoneyOverflowError, OracleLimitError
from .model import MONEY_MAX, MONEY_MIN, Money, NodeId

ORACLE_LIMIT = 20


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
    """Exact maximal zero-sum partition by the chain DP of the module.

    The guard, at most ``ORACLE_LIMIT`` nonzero balances, bounds the cost
    of one check of the fast path (under a second at 20 balances); the
    witness is the parts cut by one optimal chain.  Raises
    ``MoneyOverflowError`` when the positive or the negative balances
    total outside the int64 range, where the table of subset sums would wrap.
    """
    nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
    k = len(nonzero)
    if k > ORACLE_LIMIT:
        raise OracleLimitError(
            f"{k} nonzero balances exceed the oracle guard of {ORACLE_LIMIT}"
        )
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
    zero = (totals == 0).view(np.int8)

    # the masks in popcount order, one run per layer
    order = np.argsort(np.bitwise_count(np.arange(size)), kind="stable").astype(np.int32)
    starts = np.cumsum([0] + [comb(k, p) for p in range(k + 1)])
    f = np.zeros(size, dtype=np.int8)
    for p in range(1, k + 1):
        layer = order[starts[p] : starts[p + 1]]
        best = np.zeros(len(layer), dtype=np.int8)
        for i in range(k):
            # a mask without slot i gathers its own f, still 0: no effect
            np.maximum(best, f[layer & ~np.int32(1 << i)], out=best)
        f[layer] = best + zero[layer]

    # walk one argmax chain down from the full set: each zero set on it,
    # minus the next one below (the last is the empty set), is a part
    witness = []
    cut = s = size - 1
    while s:
        step = f[s] - zero[s]
        s ^= next(1 << i for i in range(k) if s >> i & 1 and f[s ^ (1 << i)] == step)
        if zero[s]:
            witness.append(cut ^ s)
            cut = s
    return OracleResult(int(f[-1]), k - int(f[-1]), witness)
