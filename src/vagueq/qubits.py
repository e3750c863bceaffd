"""A toy one- and two-qubit simulator with a fuzzy reading of states.

A ``Register`` holds amplitudes over the basis labels ``"0"``, ``"1"``
(one qubit) or ``"00"`` … ``"11"`` (two).  Their squared magnitudes are
read as membership grades, not probabilities: superposition becomes
fuzzification into a ``FiniteFuzzySet`` over those labels, measurement
becomes defuzzification.  The grades need not sum to one; whether they
do is reported, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fuzzy import FiniteFuzzySet

NORM_TOL = 1e-9
TIE_TOL = 1e-12
MAX_DRAWS = 10_000_000
MAX_QUBITS = 2
SQRT2 = math.sqrt(2.0)
# the basis labels of a register, keyed by its number of amplitudes
_LABELS = {2**n: tuple(format(i, f"0{n}b") for i in range(2**n)) for n in range(1, MAX_QUBITS + 1)}


def _check_amplitude(value) -> complex:
    z = complex(value)
    # a normalized state has no such amplitude; squaring a huge one overflows
    if not (abs(z.real) <= 1.0 + NORM_TOL and abs(z.imag) <= 1.0 + NORM_TOL):
        raise ValueError(f"amplitude {value!r} is not finite or exceeds 1")
    return z


def _unit_norm(amps: tuple[complex, ...]) -> tuple[complex, ...]:
    """``amps`` if their squared magnitudes sum to 1 within ``NORM_TOL``."""
    norm_sq = sum(abs(z) ** 2 for z in amps)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 is {norm_sq}, must be 1 within {NORM_TOL}")
    return amps


def _complex_pairs(nums: list[float]) -> list[complex]:
    """Consecutive ``re, im`` numbers as complex numbers."""
    return [complex(re, im) for re, im in zip(nums[::2], nums[1::2])]


@dataclass(frozen=True)
class Register:
    """Amplitudes over the basis ``labels`` of 1 to ``MAX_QUBITS`` qubits,
    normalized within 1e-9."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(_check_amplitude(z) for z in self.amplitudes)
        if len(amps) not in _LABELS:
            sizes = " or ".join(map(str, _LABELS))
            raise ValueError(f"a register holds {sizes} amplitudes, got {len(amps)}")
        object.__setattr__(self, "amplitudes", _unit_norm(amps))

    @property
    def qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    @property
    def labels(self) -> tuple[str, ...]:
        return _LABELS[len(self.amplitudes)]


def _amplitudes(s: Register, qubits: int) -> tuple[complex, ...]:
    """``s``'s amplitudes if it holds ``qubits`` qubits."""
    if s.qubits != qubits:
        raise ValueError(f"expected a {qubits}-qubit register, got {s.qubits} qubits")
    return s.amplitudes


def ket0() -> Register:
    return Register((1.0, 0.0))


def ket1() -> Register:
    return Register((0.0, 1.0))


def fuzzify(s: Register) -> FiniteFuzzySet:
    """Squared amplitude magnitudes read as membership grades of the basis
    labels, each computed in Python floats."""
    return FiniteFuzzySet(s.labels, [min(abs(z) ** 2, 1.0) for z in s.amplitudes])


def born_compatible(s: FiniteFuzzySet) -> bool:
    """Do the grades happen to sum to 1, as squared amplitudes would?"""
    return abs(math.fsum(s.grades) - 1.0) <= NORM_TOL


def apply_hadamard(s: Register) -> Register:
    a0, a1 = _amplitudes(s, 1)
    return Register(((a0 + a1) / SQRT2, (a0 - a1) / SQRT2))


def apply_pauli_x(s: Register) -> Register:
    a0, a1 = _amplitudes(s, 1)
    return Register((a1, a0))


def apply_pauli_z(s: Register) -> Register:
    a0, a1 = _amplitudes(s, 1)
    return Register((a0, -a1))


def apply_unitary(s: Register, matrix) -> Register:
    """Apply a numeric 2x2 unitary (checked unitary within 1e-9)."""
    a0, a1 = _amplitudes(s, 1)
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    # a unitary's entries lie in the unit disk; bounded, u @ u^H cannot overflow
    if not np.all(np.abs(np.stack((u.real, u.imag))) <= 1.0 + NORM_TOL):
        raise ValueError("matrix is not unitary: an entry is not finite or exceeds 1")
    defect = np.abs(u @ u.conj().T - np.eye(2)).max()
    if defect > NORM_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect})")
    b0 = u[0, 0] * a0 + u[0, 1] * a1
    b1 = u[1, 0] * a0 + u[1, 1] * a1
    return Register((complex(b0), complex(b1)))


def defuzzify(s: FiniteFuzzySet, method: str = "argmax", seed: int | None = None) -> int:
    """Collapse a fuzzy state to the index of a basis outcome.

    ``argmax`` picks the first outcome whose grade is the largest within
    1e-12, so ties go to the lower index; it never touches randomness.
    ``born_sample`` renormalizes the grades to a law over the outcomes and
    draws once from a generator seeded per call, so identical seeds give
    identical outcomes and calls never share state.
    """
    if method == "argmax":
        g = s.grades
        return int(np.argmax(g.max() - g <= TIE_TOL))
    if method == "born_sample":
        return int(born_sample_many(s, 1, seed)[0])
    raise ValueError(f"unknown defuzzification method {method!r}")


def born_sample_many(s: FiniteFuzzySet, draws: int, seed: int | None = None) -> np.ndarray:
    """Vector of outcome indices from one seeded stream (see ``defuzzify``)."""
    if not 1 <= draws <= MAX_DRAWS:
        raise ValueError(f"draws must be in 1..{MAX_DRAWS}, got {draws}")
    g = s.grades
    total = g.sum()
    if total <= 0.0:
        raise ValueError("cannot sample from an identically zero fuzzy state")
    rng = np.random.default_rng(seed)
    # outcome i where the uniform draw lies in [edge i-1, edge i)
    return np.digitize(rng.random(int(draws)), np.cumsum(g)[:-1] / total)


def tensor_product(a: Register, b: Register) -> Register:
    return Register(tuple(x * y for x in a.amplitudes for y in b.amplitudes))


def bell_state() -> Register:
    """(|00> + |11>) / sqrt(2)."""
    return Register((1.0 / SQRT2, 0.0, 0.0, 1.0 / SQRT2))


def amplitude_determinant(s: Register) -> complex:
    """Determinant of the 2x2 amplitude matrix [[c00, c01], [c10, c11]].

    Zero exactly when the state factors as a tensor product of one-qubit
    states; its magnitude is a quantitative entanglement witness.
    """
    c00, c01, c10, c11 = _amplitudes(s, 2)
    return c00 * c11 - c01 * c10


def is_entangled(s: Register, tol: float = 1e-10) -> bool:
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return abs(amplitude_determinant(s)) > tol


def parse_state_literal(text: str) -> Register:
    """Parse a state literal: ``|0>``, ``|1>``, ``bell``, or ``amp`` followed
    by comma-separated re,im pairs (2 pairs for one qubit, 4 for two)."""
    spec = text.strip()
    if spec == "|0>":
        return ket0()
    if spec == "|1>":
        return ket1()
    if spec == "bell":
        return bell_state()
    if spec.startswith("amp"):
        body = spec[3:].strip()
        try:
            nums = [float(p) for p in body.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse amplitude list {body!r}") from None
        if len(nums) not in (4, 8):
            raise ValueError(
                f"amp literal needs 2 or 4 re,im pairs, got {len(nums)} numbers"
            )
        return Register(_complex_pairs(nums))
    raise ValueError(f"unknown state literal {text!r}")


_GATES = {"H": apply_hadamard, "X": apply_pauli_x, "Z": apply_pauli_z}


def apply_gates(state: Register, gates: Iterable[str]) -> Register:
    """Apply gate literals in order: ``H``, ``X``, ``Z``, or ``u:`` followed
    by 8 comma-separated numbers, re,im per entry of a 2x2 unitary,
    row-major.  Each gate is parsed and applied before the next is read."""
    for gate in gates:
        name = gate.strip()
        if name in _GATES:
            state = _GATES[name](state)
        elif name.startswith("u:"):
            try:
                nums = [float(p) for p in name[2:].split(",")]
            except ValueError:
                raise ValueError(f"cannot parse gate {gate!r}") from None
            if len(nums) != 8:
                raise ValueError("u: gate needs 8 numbers (re,im per entry, row-major)")
            state = apply_unitary(state, np.reshape(_complex_pairs(nums), (2, 2)))
        else:
            raise ValueError(f"unknown gate {gate!r}; use H, X, Z, or u:8 numbers")
    return state
