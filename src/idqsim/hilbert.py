"""Single-particle Hilbert space: spatial modes carrying a two-level pseudospin.

Spatial regions are abstract orthonormal labels (overlaps between distinct
modes are exactly zero), so a single-particle state is just a complex
coordinate vector over the canonical (mode, spin) frame.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import BasisMismatchError

# Canonical bases are exact; this slack only absorbs rounding in
# user-supplied superpositions.
ORTHONORMALITY_TOL = 1e-10


class Spin(Enum):
    UP = "up"
    DOWN = "down"

    @property
    def arrow(self) -> str:
        return "↑" if self is Spin.UP else "↓"


class Frozen:
    """Base of the package's immutable types, written without ``dataclasses``,
    which generates and compiles each class's methods when it is imported.

    A subclass's ``__init__`` stores each of its parameters once, as the
    field of that name, through ``_set``; afterwards assignment and deletion
    raise ``AttributeError``. ``_fields`` lists those parameters: ``repr``
    shows them as ``Cls(name=value, ...)``, and ``==`` and ``hash`` compare
    them as a tuple, or identity when the subclass is declared ``eq=False``.
    """

    _fields: tuple[str, ...] = ()
    # bound to an instance, ``self._set(name, value)`` bypasses the frozen
    # ``__setattr__``; one call per field is quicker than dataclasses' __init__
    _set = object.__setattr__

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]  # after self
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


class CanonicalBasis:
    """Orthonormal (mode, spin) frame, ordered mode-major with spin up before down."""

    def __init__(self, mode_names: Sequence[str]):
        names = tuple(mode_names)
        if not names:
            raise ValueError("need at least one mode")
        if len(set(names)) != len(names):
            raise ValueError(f"mode names must be unique, got {names!r}")
        self.mode_names: tuple[str, ...] = names
        self.entries: tuple[tuple[str, Spin], ...] = tuple(
            (m, s) for m in names for s in (Spin.UP, Spin.DOWN)
        )
        self.dim: int = len(self.entries)
        self._index = {e: j for j, e in enumerate(self.entries)}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m + s.arrow for m, s in self.entries)

    def index_of(self, mode: str, spin: Spin) -> int:
        try:
            return self._index[(mode, spin)]
        except KeyError:
            raise KeyError(f"no basis entry ({mode!r}, {spin})") from None

    def ket(self, mode: str, spin: Spin) -> "Ket":
        """Canonical basis ket for one (mode, spin) entry."""
        amps = np.zeros(self.dim, dtype=complex)
        amps[self.index_of(mode, spin)] = 1.0
        return Ket(self, amps)

    def superposition(self, components: Iterable[tuple[str, Spin, complex]]) -> "Ket":
        """Build an (unnormalized) ket from (mode, spin, amplitude) triples."""
        amps = np.zeros(self.dim, dtype=complex)
        for mode, spin, amp in components:
            amps[self.index_of(mode, spin)] += amp
        return Ket(self, amps)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, CanonicalBasis) and self.mode_names == other.mode_names

    def __hash__(self) -> int:
        return hash(self.mode_names)

    def __repr__(self) -> str:
        return f"CanonicalBasis(modes={self.mode_names!r})"


def checked_amplitudes(basis: CanonicalBasis, amps, ndim: int = 1) -> np.ndarray:
    """``amps`` as a read-only C-contiguous complex copy, checked as one ket
    is checked: ``ndim - 1`` leading axes, then amplitude vectors of
    ``basis.dim`` entries (else BasisMismatchError), all of them finite
    (else ValueError). ``Ket`` checks its vector with ``ndim=1``; the
    ``from_arrays`` constructors check a whole stack of kets at once."""
    amps = np.array(amps, dtype=complex, order="C")
    vector = amps.shape[ndim - 1 :]
    if vector != (basis.dim,):
        raise BasisMismatchError(
            f"amplitude vector has shape {vector}, basis dim is {basis.dim}"
        )
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    amps.flags.writeable = False
    return amps


def _value_key(space: CanonicalBasis, amps: np.ndarray) -> tuple[tuple[str, ...], bytes]:
    """The value a single-particle ket or stack compares and hashes by: its
    frame's mode names and the bytes of its amplitudes with signed zeros
    merged (``+ 0.0`` turns -0.0 into 0.0)."""
    return space.mode_names, (amps + 0.0).tobytes()


class Ket(Frozen):
    """A single-particle state: a complex amplitude vector over a canonical
    basis. Kets compare and hash by value, ``_value_key``."""

    def __init__(self, basis: CanonicalBasis, amps: np.ndarray):
        amps = checked_amplitudes(basis, amps)
        self._set("basis", basis)
        self._set("amps", amps)

    def _values(self) -> tuple:
        return _value_key(self.basis, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __add__(self, other: "Ket") -> "Ket":
        _require_same_basis(self, other)
        return Ket(self.basis, self.amps + other.amps)

    def __mul__(self, scalar) -> "Ket":
        return Ket(self.basis, self.amps * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = []
        for j, a in enumerate(self.amps):
            if abs(a) > 1e-12:
                coeff = "" if a == 1 else f"({a:.4g})"
                parts.append(f"{coeff}{self.basis.labels[j]}"
                             if coeff else self.basis.labels[j])
        body = " + ".join(parts) if parts else "0"
        return f"|{body}>"


def _require_same_basis(a: Ket, b: Ket) -> None:
    if a.basis != b.basis:
        raise BasisMismatchError(
            f"kets live in different bases: {a.basis!r} vs {b.basis!r}"
        )


def sp_inner(bra: Ket, ket: Ket) -> complex:
    """Sesquilinear inner product <bra|ket>, antilinear in the bra."""
    _require_same_basis(bra, ket)
    return complex(np.vdot(bra.amps, ket.amps))


def orthonormality_defect(amps: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Worst deviation |<i|j> - delta_ij| over all pairs, with the offending pair.

    ``amps`` stacks the kets' amplitudes as a ``(K, dim)`` array. The defect
    is read off the Gram matrix of that stack. The pair is the first worst
    one in row-major order, ``(i, j)`` with ``i <= j``, as
    ``|<i|j>| = |<j|i>|``.
    """
    if not len(amps):
        raise ValueError("need at least one ket")
    gram = amps.conj() @ amps.T
    gram.flat[:: len(amps) + 1] -= 1.0
    dev = np.abs(gram)
    worst = int(dev.argmax())
    return float(dev.flat[worst]), tuple(sorted(divmod(worst, len(amps))))
