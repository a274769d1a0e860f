"""Under the hood: the subset-sum table, zero sets, and the reductions.

The engine keeps every nonzero-balance node in a slot and stores the
balance sum of every slot subset in a dense array.  A settlement query
collects the zero-sum subsets, shrinks that list with two reductions,
and then searches for a maximum disjoint packing.
"""

from debtclear import clear_non_atomic, clear_pairs, max_partition
from debtclear.engine import SubsetSumEngine

# ten people: five owe 99, five are owed 99, plus one +5/-5 pair
balances = {i: 99 for i in range(5)}
balances.update({5 + i: -99 for i in range(5)})
balances.update({10: 5, 11: -5})

engine = SubsetSumEngine()
engine.rebuild_from_debts(balances)
print(f"tracked nodes: {engine.vstar_size}, live mask: {engine.live_mask:#014b}")

# any subset's balance sum is one array read
slot_a, slot_b = engine.slot_of(0), engine.slot_of(5)
print("sum over {0}:", engine.subset_sum(1 << slot_a))
print("sum over {0,5}:", engine.subset_sum((1 << slot_a) | (1 << slot_b)))

s0 = engine.zero_sets()
print(f"\nzero-sum subsets: {len(s0)}")

# reduction 1: commit disjoint pairs of opposite balances outright
slot_balances = [engine.debt(u) for u in engine.node_slots()]
pairs, reduced = clear_pairs(slot_balances, s0)
print(f"committed pairs: {len(pairs)}, list shrinks to {len(reduced)}")

# reduction 2: drop sets that strictly contain another set
atoms = clear_non_atomic(reduced)
print(f"after dropping non-atomic sets: {len(atoms)}")

# the dynamic program packs what remains (here: nothing left to pack)
residual = engine.live_mask - sum(pairs)
result = max_partition(residual, atoms, universe=reduced)
parts = len(pairs) + result.part_count
print(f"\ntotal zero-sum groups: {parts}")
print(f"payments needed: {engine.vstar_size} - {parts} = {engine.vstar_size - parts}")
