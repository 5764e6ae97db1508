"""The control experiment: labeled (distinguishable) particles never mix.

Give each particle a fixed slot and repeat the measurements of the other
demos. Whatever slot is measured, in whatever basis — localized on a
site, or delocalized across two sites — the remaining slots of a product
state stay exactly pure. The entanglement seen for identical particles
comes from the symmetrized algebra, not from the measurement bookkeeping.
"""

from idqsim import (
    MeasurementBasis,
    SlotTrace,
    Spin,
    delocalized_pair,
    distinguishable_trace_iterate,
    product_state,
    purity,
    standard_space,
    von_neumann_entropy,
)

space = standard_space()
state = product_state(
    (space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN),
     space.ket("C", Spin.UP))
)
loc = {m: MeasurementBasis.localized(space, m) for m in "ABC"}

print("separated labeled product |A-down>_1 |B-down>_2 |C-up>_3")
for slot, mode in ((0, "A"), (1, "B"), (2, "C")):
    rho = distinguishable_trace_iterate(state, (SlotTrace(slot, loc[mode]),))
    print(f"  measure slot {slot + 1} at {mode}: probability {rho.prob:.3f},"
          f" purity {purity(rho):.12f}")

rho = distinguishable_trace_iterate(
    state, (SlotTrace(0, loc["A"]), SlotTrace(1, loc["B"]))
)
print(f"  measure slots 1 then 2: purity {purity(rho):.12f},"
      f" entropy {von_neumann_entropy(rho):.2e} bits")

# the delocalized detector of demo 03, aimed at one labeled slot:
# it fires only half the time, and still nothing mixes
detector = delocalized_pair(space, "A", "B")
for slot in (0, 1):
    rho = distinguishable_trace_iterate(state, (SlotTrace(slot, detector),))
    print(f"  delocalized (A+B) detector on slot {slot + 1}:"
          f" probability {rho.prob:.3f}, purity {purity(rho):.12f}")

# even piling every labeled particle into the same site changes nothing
overlapped = product_state(
    (space.ket("A", Spin.DOWN), space.ket("A", Spin.DOWN),
     space.ket("A", Spin.UP))
)
print("\nfully overlapped labeled product |A-down>_1 |A-down>_2 |A-up>_3")
for slot in range(3):
    rho = distinguishable_trace_iterate(overlapped, (SlotTrace(slot, loc["A"]),))
    print(f"  measure slot {slot + 1} at A: probability {rho.prob:.3f},"
          f" purity {purity(rho):.12f}")
