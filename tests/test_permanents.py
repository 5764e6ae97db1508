"""Permanent evaluation, cross-checked against the raw permutation sum."""

import math
from itertools import permutations

import numpy as np
import pytest

import idqsim.permanents
from idqsim.permanents import (
    determinant,
    permanent,
    permanent_naive,
    permanent_ryser,
    permutation_parity,
)


def permanent_by_definition(m):
    # independent reference: literal sum over permutations
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


def test_permutation_parity_small_cases():
    assert permutation_parity(()) == 1
    assert permutation_parity((0, 1, 2)) == 1
    assert permutation_parity((1, 0, 2)) == -1
    assert permutation_parity((1, 2, 0)) == 1
    assert permutation_parity((3, 2, 1, 0)) == 1
    assert permutation_parity((0, 1, 3, 2)) == -1


def test_permutation_parity_of_distinct_values_outside_0_to_n():
    # the sign of the reordering that sorts them: one inversion per pair out of order
    assert permutation_parity((2, 5)) == 1
    assert permutation_parity((5, 2)) == -1
    assert permutation_parity((4, 1, 3)) == 1  # 4>1, 4>3
    assert permutation_parity((7, 3, 9, -2)) == 1  # 7>3, 7>-2, 3>-2, 9>-2
    assert permutation_parity([3, 1]) == permutation_parity((1, 0))


def parity_by_cycles(perm):
    # independent reference: a cycle of length L contributes (-1)^(L-1)
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            parity = -parity
    return parity


def test_permutation_parity_agrees_with_the_cycle_walk_up_to_seven_elements():
    perms = [p for n in range(8) for p in permutations(range(n))]
    assert len(perms) == 5914
    for perm in perms:
        assert permutation_parity(perm) == parity_by_cycles(perm), perm


def test_permanent_of_empty_and_scalar():
    assert permanent(np.zeros((0, 0))) == 1.0
    assert permanent(np.array([[3.5]])) == 3.5


def test_permanent_known_values():
    assert permanent(np.eye(4)) == 1.0
    for n in range(1, 6):
        assert np.isclose(permanent(np.ones((n, n))), math.factorial(n))
    m = np.array([[1, 2], [3, 4]], dtype=float)
    assert permanent(m) == 1 * 4 + 2 * 3


def test_both_evaluators_match_the_definition():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ref = permanent_by_definition(m)
            assert np.isclose(permanent_naive(m), ref, rtol=1e-12, atol=1e-12)
            assert np.isclose(permanent_ryser(m), ref, rtol=1e-10, atol=1e-12)
            assert np.isclose(permanent(m), ref, rtol=1e-10, atol=1e-12)


def test_permanent_is_permutation_invariant():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    shuffled = m[rng.permutation(4)][:, rng.permutation(4)]
    assert np.isclose(permanent(shuffled), permanent(m))


def test_determinant_matches_numpy_and_handles_empty():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.isclose(determinant(m), np.linalg.det(m))
    assert determinant(np.zeros((0, 0))) == 1.0


def test_evaluators_take_stacks_of_matrices():
    rng = np.random.default_rng(8)
    for n in range(0, 7):
        stack = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        for fn in (permanent, permanent_naive, permanent_ryser, determinant):
            values = fn(stack)
            assert values.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                assert abs(values[idx] - fn(stack[idx])) < 1e-12 * max(1.0, abs(values[idx]))
        values = permanent(stack)
        for idx in np.ndindex(2, 3):
            want = permanent_by_definition(stack[idx])
            assert np.isclose(values[idx], want, rtol=1e-10, atol=1e-12)


def test_ryser_blocks_cover_every_column_subset(monkeypatch):
    # blocks of 3 subsets split 2^n into uneven pieces
    monkeypatch.setattr(idqsim.permanents, "_RYSER_BLOCK", 3)
    rng = np.random.default_rng(9)
    for n in (1, 4, 5):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.isclose(permanent_ryser(m), permanent_by_definition(m), rtol=1e-10, atol=1e-12)


def test_non_square_input_is_rejected():
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 2, 3))):
        for fn in (permanent, permanent_naive, permanent_ryser, determinant):
            with pytest.raises(ValueError):
                fn(bad)
