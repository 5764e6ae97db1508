"""Single-particle layer: canonical frames, kets, inner products."""

import numpy as np
import pytest

from idqsim import (
    BasisMismatchError,
    CanonicalBasis,
    DegenerateKetError,
    Ket,
    Spin,
    is_orthonormal_set,
    orthonormality_defect,
    sp_inner,
)
from idqsim.verification import random_ket, random_measurement_basis, random_unitary


def test_canonical_ordering_is_mode_major_up_before_down():
    space = CanonicalBasis(("A", "B", "C"))
    assert space.dim == 6
    assert space.labels == ("A↑", "A↓", "B↑", "B↓", "C↑", "C↓")
    assert space.index_of("A", Spin.UP) == 0
    assert space.index_of("A", Spin.DOWN) == 1
    assert space.index_of("C", Spin.DOWN) == 5


def test_canonical_kets_are_exactly_orthonormal():
    space = CanonicalBasis(("A", "B", "C"))
    defect, _ = orthonormality_defect(space.kets())
    assert defect == 0.0
    assert is_orthonormal_set(space.kets())


def test_inner_product_is_antilinear_in_the_bra():
    space = CanonicalBasis(("A", "B"))
    a = space.ket("A", Spin.UP)
    b = space.ket("B", Spin.DOWN)
    s = (2.0 + 1.0j) * a + b
    assert sp_inner(s, a) == pytest.approx(2.0 - 1.0j)
    assert sp_inner(a, s) == pytest.approx(2.0 + 1.0j)


def test_superposition_accumulates_repeated_entries():
    space = CanonicalBasis(("A", "B"))
    k = space.superposition([("A", Spin.UP, 0.5), ("A", Spin.UP, 0.5)])
    assert sp_inner(space.ket("A", Spin.UP), k) == pytest.approx(1.0)


def test_normalized_preserves_direction():
    space = CanonicalBasis(("A", "B"))
    k = space.superposition([("A", Spin.DOWN, 3.0), ("B", Spin.DOWN, 4.0)])
    u = k.normalized()
    assert np.isclose(u.norm(), 1.0)
    assert np.isclose(abs(sp_inner(u, k)), 5.0)


def test_zero_ket_cannot_be_normalized():
    space = CanonicalBasis(("A",))
    with pytest.raises(DegenerateKetError):
        Ket(space, np.zeros(2)).normalized()


def test_kets_from_different_frames_do_not_mix():
    left = CanonicalBasis(("A", "B"))
    right = CanonicalBasis(("A", "C"))
    with pytest.raises(BasisMismatchError):
        sp_inner(left.ket("A", Spin.UP), right.ket("A", Spin.UP))
    with pytest.raises(BasisMismatchError):
        left.ket("A", Spin.UP) + right.ket("A", Spin.UP)


def test_amplitudes_are_frozen():
    space = CanonicalBasis(("A",))
    k = space.ket("A", Spin.UP)
    with pytest.raises(ValueError):
        k.amps[0] = 0.0


def test_mode_names_must_be_unique():
    with pytest.raises(ValueError):
        CanonicalBasis(("A", "A"))


def test_orthonormality_defect_points_at_the_offending_pair():
    space = CanonicalBasis(("A", "B"))
    a = space.ket("A", Spin.UP)
    b = space.ket("B", Spin.UP)
    almost = (a + 0.1 * b).normalized()
    defect, pair = orthonormality_defect([a, b, almost])
    assert pair in ((0, 2), (2, 0))
    assert defect > 0.05


def loop_orthonormality_defect(kets):
    """The pairwise double loop that ``orthonormality_defect`` replaced."""
    worst, pair = 0.0, (0, 0)
    for i, ki in enumerate(kets):
        for j, kj in enumerate(kets):
            dev = abs(sp_inner(ki, kj) - (1.0 if i == j else 0.0))
            if dev > worst:
                worst, pair = dev, (i, j)
    return worst, pair


def test_orthonormality_defect_matches_the_pairwise_loop():
    rng = np.random.default_rng(5)
    space = CanonicalBasis(("A", "B", "C", "D"))
    for k in range(1, space.dim + 1):
        for _ in range(5):
            kets = [random_ket(rng, space) for _ in range(k)]
            defect, pair = orthonormality_defect(kets)
            want, want_pair = loop_orthonormality_defect(kets)
            assert defect == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert pair == want_pair
    # an orthonormal set with one planted bad pair
    kets = list(random_measurement_basis(rng, space).kets)
    kets[5] = (kets[5] + 0.03 * kets[2]).normalized()
    defect, pair = orthonormality_defect(kets)
    want, want_pair = loop_orthonormality_defect(kets)
    assert pair == want_pair == (2, 5)
    assert defect == pytest.approx(want, rel=1e-12)
    exact = orthonormality_defect(space.kets())
    assert exact == loop_orthonormality_defect(space.kets()) == (0.0, (0, 0))


def test_orthonormality_defect_refuses_mixed_bases():
    a = CanonicalBasis(("A", "B")).ket("A", Spin.UP)
    b = CanonicalBasis(("A", "C")).ket("A", Spin.DOWN)
    with pytest.raises(BasisMismatchError, match="different bases"):
        orthonormality_defect([a, b])


def test_kets_reject_non_finite_imaginary_parts_and_wrong_shapes():
    space = CanonicalBasis(("A",))
    for bad in (complex(0.0, float("nan")), complex(0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            Ket(space, [1.0, bad])
    with pytest.raises(BasisMismatchError, match="shape"):
        Ket(space, [1.0, 0.0, 0.0])
    with pytest.raises(BasisMismatchError, match="shape"):
        Ket(space, [[1.0, 0.0]])


def test_kets_copy_their_amplitudes_even_from_a_strided_column():
    space = CanonicalBasis(("A", "B"))
    u = random_unitary(np.random.default_rng(2), space.dim)
    column, before = u[:, 1], u[:, 1].copy()
    assert not column.flags.c_contiguous
    k = Ket(space, column)
    assert np.array_equal(k.amps, before) and k.amps.flags.c_contiguous
    assert not k.amps.flags.writeable
    u[:, 1] = 0.0
    assert np.array_equal(k.amps, before)
    source = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    k = Ket(space, source)
    source[0] = 5.0
    assert k.amps[0] == 1.0
