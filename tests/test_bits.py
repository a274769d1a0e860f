import numpy as np

from debtclear.bits import bit_positions, popcount_array


def test_bit_positions():
    assert bit_positions(0) == []
    assert bit_positions(0b1) == [0]
    assert bit_positions(0b101001) == [0, 3, 5]


def test_popcount_array():
    arr = np.array([0, 1, 0b111, (1 << 40) - 1], dtype=np.int64)
    assert popcount_array(arr).tolist() == [0, 1, 3, 40]
