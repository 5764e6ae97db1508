"""A delocalized detection entangles the two untouched qubits.

Start from the same separated state |A-down, B-down, C-up> and trace one
particle onto the balanced superposition of sites B and C instead of a
single site. The detector cannot tell which of the two localized qubits
it swallowed, and the leftover pair inherits exactly one bit of
entanglement: a rank-2 density matrix with eigenvalues {1/2, 1/2} on the
|A-down, C-up> and |A-down, B-down> occupations.
"""

import numpy as np

from idqsim import (
    Spin,
    Statistics,
    delocalized_pair,
    elementary,
    partial_trace_iterate,
    purity,
    spectrum,
    standard_space,
    von_neumann_entropy,
)

space = standard_space()
phi = elementary(
    Statistics.BOSON,
    (space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN),
     space.ket("C", Spin.UP)),
)

detector = delocalized_pair(space, "B", "C")
rho = partial_trace_iterate(phi, (detector,))

print("detection probability:", rho.prob)
print("entropy of the remaining pair:", von_neumann_entropy(rho), "bits")
print("purity:", purity(rho))

eigs = spectrum(rho)
print("eigenvalues:", [round(float(v), 12) for v in eigs if v > 1e-12])

# the two half-weight eigenvectors are exactly these occupations
for entries in ((("A", Spin.DOWN), ("C", Spin.UP)),
                (("A", Spin.DOWN), ("B", Spin.DOWN))):
    v = rho.basis.unit_vector(entries)
    residual = np.linalg.norm(rho.mat @ v - 0.5 * v)
    label = rho.basis.labels[rho.basis.index_of(entries)]
    print(f"  rho |{label}> = 1/2 |{label}>  (residual {residual:.2e})")
