"""Permanents, determinants and permutation parity for small complex matrices.

Every evaluator takes one square matrix or a stack ``(..., n, n)`` of them and
returns a complex number for one matrix, an array over the stack otherwise, so
the Gram matrices of all term pairs of two states are evaluated in one call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

# Above this size the permutation sum loses to Ryser's O(2^n n) formula.
_NAIVE_LIMIT = 4
# Column subsets per Ryser block; bounds the row sums held at once to
# n * 4096 entries per matrix, whatever n is.
_RYSER_BLOCK = 1 << 12


def permutation_parity(values: Sequence[int]) -> int:
    """Sign (+1/-1) of the reordering that sorts ``values``, a sequence of
    distinct numbers: -1 to the number of its inversions (pairs out of
    ascending order). On a permutation of 0..n-1 this is its sign."""
    inversions = sum(a > b for i, a in enumerate(values) for b in values[i + 1:])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _permutation_rows(n: int) -> np.ndarray:
    """The ``n!`` permutations of ``0..n-1`` as the rows of one read-only
    array, in lexicographic order."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def _square_stack(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def _result(a: np.ndarray, values: np.ndarray):
    return complex(values) if a.ndim == 2 else values


def permanent_naive(matrix: np.ndarray):
    """Permanent by the explicit sum over all n! permutations."""
    a = _square_stack(matrix)
    n = a.shape[-1]
    perms = _permutation_rows(n)
    picked = a[..., np.arange(n), perms]  # (..., n!, n): a[i, perm[i]] per row
    return _result(a, picked.prod(axis=-1).sum(axis=-1))


def permanent_ryser(matrix: np.ndarray):
    """Permanent by Ryser's inclusion-exclusion formula,
    ``(-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij`` over the column
    subsets ``S`` (bit masks), a block of subsets at a time."""
    a = _square_stack(matrix)
    n = a.shape[-1]
    total = np.zeros(a.shape[:-2], dtype=complex)
    for start in range(0, 1 << n, _RYSER_BLOCK):
        masks = np.arange(start, min(start + _RYSER_BLOCK, 1 << n))
        members = ((masks[:, None] >> np.arange(n)) & 1).astype(float)  # (block, n)
        signs = 1.0 - 2.0 * (members.sum(axis=1) % 2)
        total += (a @ members.T).prod(axis=-2) @ signs
    return _result(a, (-1) ** n * total)


def permanent(matrix: np.ndarray):
    """Permanent of a square complex matrix or a stack of them (naive for
    n <= 4, Ryser above)."""
    a = _square_stack(matrix)
    if a.shape[-1] <= _NAIVE_LIMIT:
        return permanent_naive(a)
    return permanent_ryser(a)


def determinant(matrix: np.ndarray):
    """Determinant of a square complex matrix or a stack of them; the empty
    matrix gives 1."""
    a = _square_stack(matrix)
    return _result(a, np.linalg.det(a))
