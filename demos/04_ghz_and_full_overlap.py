"""Two genuinely multipartite states: GHZ-type and fully overlapped.

The GHZ-type superposition (all three down) + (all three up) is maximally
mixed under every cut: one full bit of entropy whichever site is traced
out, at either depth. The flag aggregating the three bipartitions calls
it genuinely multipartite.

Piling all three bosons into one site does the same with spin alone:
sqrt(1/2) |A-down, A-down, A-up> has one- and two-particle entropies of
log2(3) - 2/3 = 0.918... bits under the only available cut, with spectra
{2/3, 1/3} at both depths.
"""

import math

from idqsim import (
    MeasurementBasis,
    Spin,
    Statistics,
    TracePlan,
    analyze,
    elementary,
    normalize,
    spectrum,
    standard_space,
)

space = standard_space()
loc = {m: MeasurementBasis.localized(space, m) for m in "ABC"}

ghz = normalize(
    elementary(Statistics.BOSON, [space.ket(m, Spin.DOWN) for m in "ABC"])
    + elementary(Statistics.BOSON, [space.ket(m, Spin.UP) for m in "ABC"])
)
plans = (
    TracePlan("(AB)-C", one_stages=(loc["A"], loc["B"]), two_stages=(loc["C"],)),
    TracePlan("(CA)-B", one_stages=(loc["C"], loc["A"]), two_stages=(loc["B"],)),
    TracePlan("(BC)-A", one_stages=(loc["B"], loc["C"]), two_stages=(loc["A"],)),
)
report = analyze(ghz, plans)
print("GHZ-type superposition:")
for b in report.bipartitions:
    print(f"  cut {b.label}: two-particle entropy {b.rho_two.entropy:.12f},"
          f" one-particle entropy {b.rho_one.entropy:.12f} bits")
print("  genuinely multipartite:", report.genuine_multipartite)

overlapped = elementary(
    Statistics.BOSON,
    (space.ket("A", Spin.DOWN), space.ket("A", Spin.DOWN),
     space.ket("A", Spin.UP)),
    1 / math.sqrt(2),
)
plan = TracePlan("(AA)-A", one_stages=(loc["A"], loc["A"]),
                 two_stages=(loc["A"],))
report = analyze(overlapped, (plan,))
b = report["(AA)-A"]
print("\nfully overlapped bosons:")
print(f"  entropies: {b.rho_two.entropy:.12f} and {b.rho_one.entropy:.12f} bits"
      f" (log2(3) - 2/3 = {math.log2(3) - 2 / 3:.12f})")
print(f"  spectra: {[round(float(v), 6) for v in spectrum(b.rho_two) if v > 1e-9]}"
      f" and {[round(float(v), 6) for v in spectrum(b.rho_one) if v > 1e-9]}")
print("  genuinely multipartite:", report.genuine_multipartite)
