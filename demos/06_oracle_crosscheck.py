"""Cross-checking the label-free algebra against a brute-force oracle.

The oracle gives each particle an explicit tensor-product slot, builds the
fully (anti)symmetrized vector in the 6^3-dimensional labeled space, and
traces a labeled factor of its density matrix one slot at a time, mapping
the remainder to occupation numbers only at the end. Label-free inner
products must match the oracle up to the 3! normalization of the
symmetrizer, and label-free partial traces must match the oracle's density
matrices entry by entry, for random states of either statistics.
"""

import math

import numpy as np

from idqsim import (
    Statistics,
    inner,
    oracle_inner,
    oracle_trace,
    partial_trace_one,
    standard_space,
)
from idqsim.verification import random_measurement_basis, random_state

space = standard_space()

for statistics in (Statistics.BOSON, Statistics.FERMION):
    worst_inner = 0.0
    worst_trace = 0.0
    for k in range(25):
        rng = np.random.default_rng([606, k, statistics is Statistics.FERMION])
        phi = random_state(rng, space, 3, statistics)
        psi = random_state(rng, space, 3, statistics)

        direct = inner(phi, psi)
        labeled = oracle_inner(phi, psi) / math.factorial(3)
        worst_inner = max(worst_inner, abs(direct - labeled))

        basis = random_measurement_basis(rng, space)
        ours = partial_trace_one(phi, basis)
        theirs = oracle_trace(phi, basis)
        worst_trace = max(worst_trace, float(np.abs(ours.mat - theirs.mat).max()))
    print(f"{statistics.value}s, 25 random states:")
    print(f"  worst inner-product deviation: {worst_inner:.3e}")
    print(f"  worst density-matrix deviation: {worst_trace:.3e}")

print("\nthe same check runs over the whole battery with: idqsim verify")
