"""Acceptance gate: the eight headline behaviors, one pass/fail line each.

Each test prints a single line (visible under ``pytest -s`` or in failure
output) and asserts the same condition, so the suite doubles as a checklist.
"""

import math

import numpy as np
import pytest

from idqsim import (
    CanonicalBasis,
    MeasurementBasis,
    NullStateError,
    Spin,
    Statistics,
    TracePlan,
    analyze,
    delocalized_pair,
    elementary,
    inner,
    norm,
    normalize,
    oracle_inner,
    oracle_trace,
    partial_trace_iterate,
    partial_trace_one,
    probability_of,
    product_state,
    distinguishable_trace_iterate,
    SlotTrace,
    spectrum,
    standard_space,
    von_neumann_entropy,
    purity,
)
from idqsim.verification import (
    random_ket,
    random_measurement_basis,
    random_state,
)

BOTH = (Statistics.BOSON, Statistics.FERMION)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num}: {text}"


def _loc(space, mode):
    return MeasurementBasis.localized(space, mode)


def _space():
    return standard_space()


def _overlap_state(space):
    a_dn = space.ket("A", Spin.DOWN)
    a_up = space.ket("A", Spin.UP)
    return elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))


def _separated_state(space):
    return elementary(
        Statistics.BOSON,
        (space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN),
         space.ket("C", Spin.UP)),
    )


def _ghz_state(space):
    dn = [space.ket(m, Spin.DOWN) for m in "ABC"]
    up = [space.ket(m, Spin.UP) for m in "ABC"]
    return normalize(
        elementary(Statistics.BOSON, dn) + elementary(Statistics.BOSON, up)
    )


def _three_cuts(space):
    return (
        TracePlan("(AB)-C", one_stages=(_loc(space, "A"), _loc(space, "B")),
                  two_stages=(_loc(space, "C"),)),
        TracePlan("(CA)-B", one_stages=(_loc(space, "C"), _loc(space, "A")),
                  two_stages=(_loc(space, "B"),)),
        TracePlan("(BC)-A", one_stages=(_loc(space, "B"), _loc(space, "C")),
                  two_stages=(_loc(space, "A"),)),
    )


def test_criterion_1_full_overlap_entropies_and_spectra():
    space = _space()
    phi = _overlap_state(space)
    loc_a = _loc(space, "A")
    rho2 = partial_trace_one(phi, loc_a)
    rho1 = partial_trace_iterate(phi, (loc_a, loc_a))
    target_s = math.log2(3.0) - 2.0 / 3.0
    worst_s = max(
        abs(von_neumann_entropy(rho2) - target_s),
        abs(von_neumann_entropy(rho1) - target_s),
    )
    worst_ev = 0.0
    for rho in (rho2, rho1):
        ev = spectrum(rho)
        want = np.zeros(ev.size)
        want[:2] = (2.0 / 3.0, 1.0 / 3.0)
        worst_ev = max(worst_ev, float(np.abs(ev - want).max()))
    ok = worst_s <= 1e-9 and worst_ev <= 1e-10
    _line(
        1,
        ok,
        "one- and two-particle entropies of the piled-up state hit "
        f"log2(3)-2/3 (off by {worst_s:.2e}) with spectra {{2/3, 1/3}} "
        f"(off by {worst_ev:.2e})",
    )


def test_criterion_2_separated_state_is_pure_under_every_cut():
    space = _space()
    phi = _separated_state(space)
    report = analyze(phi, _three_cuts(space))
    worst_purity = 0.0
    worst_entropy = 0.0
    for b in report.bipartitions:
        for rho in (b.rho_one, b.rho_two):
            worst_purity = max(worst_purity, abs(rho.purity - 1.0))
            worst_entropy = max(worst_entropy, rho.entropy)
    ok = (
        worst_purity <= 1e-10
        and worst_entropy <= 1e-9
        and report.genuine_multipartite is False
    )
    _line(
        2,
        ok,
        "all three cuts of one-qubit-per-site leave pure remainders "
        f"(purity off by {worst_purity:.2e}, entropy at most "
        f"{worst_entropy:.2e} bits) and the state is not flagged multipartite",
    )


def test_criterion_3_delocalized_detection_entangles_the_pair():
    space = _space()
    phi = _separated_state(space)
    rho = partial_trace_one(phi, delocalized_pair(space, "B", "C"))
    ev = spectrum(rho)
    want = np.zeros(ev.size)
    want[:2] = 0.5
    ev_off = float(np.abs(ev - want).max())

    vals, vecs = np.linalg.eigh(rho.mat)
    half_space = vecs[:, vals > 0.25]  # the two eigenvectors at 1/2
    proj = half_space @ half_space.conj().T
    v1 = rho.basis.unit_vector((("A", Spin.DOWN), ("C", Spin.UP)))
    v2 = rho.basis.unit_vector((("A", Spin.DOWN), ("B", Spin.DOWN)))
    o1 = float((v1.conj() @ proj @ v1).real)
    o2 = float((v2.conj() @ proj @ v2).real)
    ok = (
        half_space.shape[1] == 2
        and ev_off <= 1e-10
        and min(o1, o2) >= 1.0 - 1e-9
    )
    _line(
        3,
        ok,
        "detecting one particle in the balanced (B+C) modes leaves a rank-2 "
        f"pair state with spectrum {{1/2, 1/2}} (off by {ev_off:.2e}) on the "
        f"A-down/C-up and A-down/B-down occupations (overlaps {o1:.12f}, "
        f"{o2:.12f})",
    )


def test_criterion_4_ghz_superposition_is_maximally_mixed_per_cut():
    space = _space()
    phi = _ghz_state(space)
    report = analyze(phi, _three_cuts(space))
    worst = 0.0
    for b in report.bipartitions:
        for rho in (b.rho_one, b.rho_two):
            worst = max(worst, abs(rho.entropy - 1.0))
    ok = worst <= 1e-9 and report.genuine_multipartite is True
    _line(
        4,
        ok,
        "every cut of the GHZ-type superposition carries exactly one bit "
        f"(off by {worst:.2e}) and the state is flagged genuinely multipartite",
    )


def test_criterion_5_labeled_products_never_mix():
    space = _space()
    separated = product_state(
        (space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN),
         space.ket("C", Spin.UP))
    )
    overlapped = product_state(
        (space.ket("A", Spin.DOWN), space.ket("A", Spin.DOWN),
         space.ket("A", Spin.UP))
    )
    loc = {m: _loc(space, m) for m in "ABC"}
    nonlocal_ab = delocalized_pair(space, "A", "B")
    runs = []
    for state, bases in ((separated, ("A", "B", "C")),
                         (overlapped, ("A", "A", "A"))):
        for slot in range(3):
            runs.append((state, (SlotTrace(slot, loc[bases[slot]]),)))
        others = [(0, 1), (2, 0), (1, 2)]
        for i, j in others:
            runs.append(
                (state,
                 (SlotTrace(i, loc[bases[i]]), SlotTrace(j, loc[bases[j]])))
            )
    # the delocalized detector on either slot of the separated product
    runs.append((separated, (SlotTrace(0, nonlocal_ab),)))
    runs.append((separated, (SlotTrace(1, nonlocal_ab),)))
    worst = 0.0
    for state, steps in runs:
        rho = distinguishable_trace_iterate(state, steps)
        worst = max(worst, abs(purity(rho) - 1.0))
    ok = worst <= 1e-10
    _line(
        5,
        ok,
        f"all {len(runs)} slot-wise traces of labeled products, localized "
        f"and delocalized alike, stay pure (purity off by {worst:.2e})",
    )


def test_criterion_6_label_free_algebra_matches_the_labeled_oracle():
    space = _space()
    worst_inner = 0.0
    worst_trace = 0.0
    states = 0
    for stats in BOTH:
        for k in range(60):
            rng = np.random.default_rng([61, k, ord(stats.value[0])])
            phi = random_state(rng, space, 3, stats)
            psi = random_state(rng, space, 3, stats)
            states += 1
            got = inner(phi, psi)
            want = oracle_inner(phi, psi) / math.factorial(3)
            worst_inner = max(worst_inner, abs(got - want))
            mb = random_measurement_basis(rng, space)
            ours = partial_trace_one(phi, mb)
            oracle = oracle_trace(phi, mb)
            worst_trace = max(
                worst_trace,
                float(np.abs(ours.mat - oracle.mat).max()),
                abs(ours.prob - oracle.prob),
            )
    ok = states >= 100 and worst_inner <= 1e-10 and worst_trace <= 1e-10
    _line(
        6,
        ok,
        f"{states} random three-particle states: inner products match the "
        f"labeled oracle over 3! (off by {worst_inner:.2e}) and partial "
        f"traces match entrywise (off by {worst_trace:.2e})",
    )


def test_criterion_7_exclusion_principle_is_exact():
    space = _space()
    worst = 0.0
    checked = 0
    for k in range(12):
        rng = np.random.default_rng([71, k])
        chi = random_ket(rng, space)
        other = random_ket(rng, space)
        scale = complex(rng.normal(), rng.normal())
        twin = space.superposition(
            [
                (m, s, scale * chi.amps[space.index_of(m, s)])
                for m in space.mode_names
                for s in (Spin.DOWN, Spin.UP)
            ]
        )
        kets = [chi, twin, other]
        rng.shuffle(kets)
        phi = elementary(Statistics.FERMION, kets)
        worst = max(worst, norm(phi))
        with pytest.raises(NullStateError):
            normalize(phi)
        checked += 1
    ok = checked == 12 and worst <= 1e-12
    _line(
        7,
        ok,
        f"{checked} fermionic states with proportional kets have norm at "
        f"most {worst:.2e} and refuse to normalize",
    )


def test_criterion_8_probabilities_are_a_measure():
    space = _space()
    worst_total = 0.0
    worst_add = 0.0
    for stats in BOTH:
        for k in range(8):
            rng = np.random.default_rng([81, k, ord(stats.value[0])])
            phi = random_state(rng, space, 3, stats)
            full = random_measurement_basis(rng, space)
            total = probability_of(phi, full)
            worst_total = max(worst_total, abs(total - 1.0))
            cut = int(rng.integers(1, space.dim))
            part_a = MeasurementBasis(space, full.amps[:cut])
            part_b = MeasurementBasis(space, full.amps[cut:])
            p_union = probability_of(phi, full)
            p_split = probability_of(phi, part_a) + probability_of(phi, part_b)
            worst_add = max(worst_add, abs(p_union - p_split))
    ok = worst_total <= 1e-10 and worst_add <= 1e-10
    _line(
        8,
        ok,
        "single-detection probabilities sum to one over a complete basis "
        f"(off by {worst_total:.2e}) and add over disjoint basis unions "
        f"(off by {worst_add:.2e})",
    )
