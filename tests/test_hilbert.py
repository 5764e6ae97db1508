"""Single-particle layer: canonical frames, kets, inner products, and the
immutable base class of the package's value types."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from idqsim import (
    BasisMismatchError,
    BipartitionReport,
    CanonicalBasis,
    DensityMatrix,
    ElementaryState,
    EntanglementReport,
    Ket,
    LabeledState,
    MeasurementBasis,
    NullStateError,
    OccupationBasis,
    ParticleState,
    SlotTrace,
    Spin,
    Statistics,
    TracePlan,
    elementary,
    normalize,
    orthonormality_defect,
    sp_inner,
)
from idqsim.scenarios import Expectation, ExpectationResult, ScenarioReport, ScenarioSpec
from idqsim.verification import (
    PropertyResult,
    random_ket,
    random_measurement_basis,
    random_unitary,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_canonical_ordering_is_mode_major_up_before_down():
    space = CanonicalBasis(("A", "B", "C"))
    assert space.dim == 6
    assert space.labels == ("A↑", "A↓", "B↑", "B↓", "C↑", "C↓")
    assert space.index_of("A", Spin.UP) == 0
    assert space.index_of("A", Spin.DOWN) == 1
    assert space.index_of("C", Spin.DOWN) == 5
    assert space.entries[:3] == (("A", Spin.UP), ("A", Spin.DOWN), ("B", Spin.UP))


def test_canonical_kets_are_exactly_orthonormal():
    space = CanonicalBasis(("A", "B", "C"))
    full = MeasurementBasis.full(space)
    assert orthonormality_defect(full.amps) == (0.0, (0, 0))
    for k, (mode, spin) in zip(full.kets, space.entries, strict=True):
        assert np.array_equal(k.amps, space.ket(mode, spin).amps)


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


def unit(k: Ket) -> Ket:
    """``k`` scaled to unit norm, as ``Ket`` has no normalizing method."""
    return k * (1 / k.norm())


def test_scaling_by_the_inverse_norm_preserves_direction():
    space = CanonicalBasis(("A", "B"))
    k = space.superposition([("A", Spin.DOWN, 3.0), ("B", Spin.DOWN, 4.0)])
    u = unit(k)
    assert np.isclose(u.norm(), 1.0)
    assert np.isclose(abs(sp_inner(u, k)), 5.0)


def test_a_zero_ket_cannot_be_scaled_to_unit_norm():
    space = CanonicalBasis(("A",))
    zero = Ket(space, np.zeros(2))
    with pytest.raises(ZeroDivisionError):
        unit(zero)
    # nor can a state holding it
    with pytest.raises(NullStateError):
        normalize(elementary(Statistics.BOSON, (zero,)))


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
    almost = unit(a + 0.1 * b)
    defect, pair = orthonormality_defect(np.array([a.amps, b.amps, almost.amps]))
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
            defect, pair = orthonormality_defect(np.array([k.amps for k in kets]))
            want, want_pair = loop_orthonormality_defect(kets)
            assert defect == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert pair == want_pair
    # an orthonormal set with one planted bad pair
    kets = list(random_measurement_basis(rng, space).kets)
    kets[5] = unit(kets[5] + 0.03 * kets[2])
    defect, pair = orthonormality_defect(np.array([k.amps for k in kets]))
    want, want_pair = loop_orthonormality_defect(kets)
    assert pair == want_pair == (2, 5)
    assert defect == pytest.approx(want, rel=1e-12)
    full = MeasurementBasis.full(space)
    exact = orthonormality_defect(full.amps)
    assert exact == loop_orthonormality_defect(full.kets) == (0.0, (0, 0))


def test_a_measurement_basis_refuses_kets_of_mixed_frames():
    # a stack carries no frame: kets are checked for one when they are stacked
    a = CanonicalBasis(("A", "B")).ket("A", Spin.UP)
    b = CanonicalBasis(("A", "C")).ket("A", Spin.DOWN)
    with pytest.raises(BasisMismatchError, match="different bases"):
        MeasurementBasis([a, b])


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


# --- the immutable value types -------------------------------------------

SPACE = CanonicalBasis(("A", "B"))
UP, DOWN = SPACE.ket("A", Spin.UP), SPACE.ket("A", Spin.DOWN)
TERM = ElementaryState(coeff=1.0, kets=(UP,))
STATE = ParticleState(statistics=Statistics.BOSON, terms=(TERM,))
BASIS = MeasurementBasis(kets=(UP, DOWN))
PLAN = TracePlan("p", one_stages=(BASIS,))
EXPECTATION = Expectation(quantity="entropy_one", value=0.0, label="p")
REPORT = EntanglementReport(bipartitions=(), genuine_multipartite=None)


def pure_rho() -> DensityMatrix:
    occupations = OccupationBasis(SPACE, 1, Statistics.BOSON)
    return DensityMatrix(basis=occupations, factor=[[1], [0], [0], [0]], prob=1)


# (constructor call by keyword, defaults it must fill in, compared by value?)
FROZEN_TYPES = [
    pytest.param(lambda: Ket(basis=SPACE, amps=[1, 0, 0, 0]), {}, True, id="Ket"),
    pytest.param(lambda: ElementaryState(coeff=2, kets=[UP]), {}, False, id="ElementaryState"),
    pytest.param(
        lambda: ParticleState(statistics=Statistics.BOSON, terms=[TERM]), {}, False,
        id="ParticleState",
    ),
    pytest.param(lambda: MeasurementBasis(kets=[UP, DOWN]), {}, True, id="MeasurementBasis"),
    pytest.param(pure_rho, {}, False, id="DensityMatrix"),
    # a fresh ket per call: labeled states compare by their kets' values
    pytest.param(
        lambda: LabeledState(terms=((1.0, (SPACE.ket("A", Spin.UP),)),)), {}, True,
        id="LabeledState",
    ),
    pytest.param(lambda: SlotTrace(slot=0, basis=BASIS), {}, True, id="SlotTrace"),
    pytest.param(
        lambda: TracePlan(label="p", one_stages=[BASIS]),
        {"two_stages": None, "bipartition": True}, True, id="TracePlan",
    ),
    pytest.param(
        lambda: BipartitionReport(label="p", mixed=False),
        {"entropy_one": None, "entropy_two": None, "purity_one": None, "purity_two": None,
         "rho_one": None, "rho_two": None, "bipartition": True},
        True, id="BipartitionReport",
    ),
    pytest.param(
        lambda: EntanglementReport(bipartitions=(), genuine_multipartite=None), {}, True,
        id="EntanglementReport",
    ),
    pytest.param(
        lambda: Expectation(quantity="entropy_one", value=0.0, label="p"),
        {"stage": None, "tolerance": 1e-10}, True, id="Expectation",
    ),
    pytest.param(
        lambda: ScenarioSpec(name="s", title="t", state=STATE, plans=(PLAN,)),
        {"expectations": ()}, True, id="ScenarioSpec",
    ),
    pytest.param(
        lambda: ExpectationResult(
            expectation=EXPECTATION, tolerance=1e-10, actual=0.0, passed=True
        ),
        {"note": ""}, True, id="ExpectationResult",
    ),
    pytest.param(
        lambda: ScenarioReport(name="s", title="t", report=REPORT, checks=()), {}, True,
        id="ScenarioReport",
    ),
    pytest.param(
        lambda: PropertyResult(name="n", passed=True, detail="d"), {}, True,
        id="PropertyResult",
    ),
]


@pytest.mark.parametrize("make, defaults, by_value", FROZEN_TYPES)
def test_value_types_are_immutable_and_compare_as_declared(make, defaults, by_value):
    a, b = make(), make()
    for field in list(vars(a)):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == a
    if by_value:
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b and hash(a) == object.__hash__(a)
    for field, value in defaults.items():
        assert getattr(a, field) == value


def test_kets_compare_and_hash_by_frame_and_amplitudes():
    """A ket is its frame's mode names and its amplitudes, with signed zeros
    merged, as a ``MeasurementBasis`` is its frame and stack."""
    signed = Ket(SPACE, [1.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)])
    twin = Ket(CanonicalBasis(("A", "B")), [1, 0, 0, 0])
    assert np.signbit(signed.amps.real).any() and np.signbit(signed.amps.imag).any()
    for same in (signed, twin, SPACE.ket("A", Spin.UP)):
        assert same == UP and not same != UP and hash(same) == hash(UP)
    assert len({UP, signed, twin, DOWN}) == 2
    for other in (DOWN, 1j * UP, Ket(CanonicalBasis(("A", "C")), [1, 0, 0, 0])):
        assert other != UP and not other == UP
    assert UP != MeasurementBasis([UP]) and UP != (SPACE, UP.amps)


def test_reprs_name_the_fields_but_not_the_derived_spectrum():
    # a basis shows its stack, not kets it would have to build
    assert repr(PLAN).startswith(
        "TracePlan(label='p', one_stages=(MeasurementBasis("
        "space=CanonicalBasis(modes=('A', 'B')), amps=array([[1.+0.j, 0.+0.j,"
    )
    rho = pure_rho()
    text = repr(rho)
    assert text.startswith("DensityMatrix(basis=OccupationBasis(") and text.endswith("prob=1.0)")
    assert rho.purity == 1.0 and "spectrum" not in text and "purity" not in text
    assert rho.entropy == 0.0 and "entropy" not in text


def test_importing_idqsim_compiles_no_generated_source():
    # numpy first, as any caller would have it; a compile event whose
    # filename is not a .py file is code generated at import time
    probe = (
        "import sys, numpy\n"
        "generated = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and not str(args[1]).endswith('.py'):\n"
        "        generated.append(args[1])\n"
        "sys.addaudithook(hook)\n"
        "import idqsim\n"
        "print(len(generated), 'dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
