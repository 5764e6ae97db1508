"""Partial traces with localized detectors: separated qubits stay pure.

With one qubit per site, detecting a particle at any chosen site and
keeping the rest never creates mixing: every one- and two-particle
remainder is pure, whichever of the three sites is traced out first.
The probability of finding a particle at a given site is 1/3 per trace
(one chance in three particles).
"""

from idqsim import (
    MeasurementBasis,
    Spin,
    Statistics,
    elementary,
    partial_trace_iterate,
    purity,
    standard_space,
    von_neumann_entropy,
)

space = standard_space()
phi = elementary(
    Statistics.BOSON,
    (space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN),
     space.ket("C", Spin.UP)),
)

for kept, removed_first, removed_second in (
    ("AB", "C", None),
    ("CA", "B", None),
    ("BC", "A", None),
    ("C", "A", "B"),
    ("A", "B", "C"),
    ("B", "C", "A"),
):
    stages = [MeasurementBasis.localized(space, removed_first)]
    if removed_second is not None:
        stages.append(MeasurementBasis.localized(space, removed_second))
    rho = partial_trace_iterate(phi, stages)
    print(
        f"keep {kept:<2} remove {removed_first}"
        + (f" then {removed_second}" if removed_second else "       ")
        + f": probability {rho.prob:.6f}, purity {purity(rho):.12f},"
          f" entropy {von_neumann_entropy(rho):.2e} bits"
    )

# the same conclusion through a single call per cut
rho_pair = partial_trace_iterate(phi, (MeasurementBasis.localized(space, "C"),))
print("\npair left after a detection at C, occupation weights:")
for label, weight in zip(rho_pair.basis.labels, rho_pair.mat.diagonal().real):
    if weight > 1e-12:
        print(f"  {label}: {weight:.6f}")
