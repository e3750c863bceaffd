"""A toy one- and two-qubit simulator with a fuzzy reading of states.

Squared amplitude magnitudes are taken as membership grades of the basis
outcomes rather than probabilities: superposition becomes fuzzification,
measurement becomes defuzzification.  Fuzzy states carry two grades that
need not sum to one; whether they happen to is reported, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fuzzy import as_grade

NORM_TOL = 1e-9
TIE_TOL = 1e-12
MAX_DRAWS = 10_000_000
SQRT2 = math.sqrt(2.0)


def _check_amplitude(value) -> complex:
    z = complex(value)
    # a normalized state has no such amplitude; squaring a huge one overflows
    if not (abs(z.real) <= 1.0 + NORM_TOL and abs(z.imag) <= 1.0 + NORM_TOL):
        raise ValueError(f"amplitude {value!r} is not finite or exceeds 1")
    return z


@dataclass(frozen=True)
class QubitState:
    """Amplitudes over the computational basis, normalized within 1e-9."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        a0 = _check_amplitude(self.a0)
        a1 = _check_amplitude(self.a1)
        norm_sq = abs(a0) ** 2 + abs(a1) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 is {norm_sq}, must be 1 within {NORM_TOL}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)


@dataclass(frozen=True)
class TwoQubitState:
    """Four amplitudes over |00>, |01>, |10>, |11>, normalized within 1e-9."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(_check_amplitude(z) for z in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("two-qubit states need exactly 4 amplitudes")
        norm_sq = sum(abs(z) ** 2 for z in amps)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 is {norm_sq}, must be 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class FuzzyQubitState:
    """Membership grades of the two basis outcomes; the sum is unconstrained."""

    mu0: float
    mu1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu0", as_grade(self.mu0))
        object.__setattr__(self, "mu1", as_grade(self.mu1))

    @property
    def born_compatible(self) -> bool:
        """Do the grades happen to sum to 1, as squared amplitudes would?"""
        return abs(self.mu0 + self.mu1 - 1.0) <= NORM_TOL


def ket0() -> QubitState:
    return QubitState(1.0, 0.0)


def ket1() -> QubitState:
    return QubitState(0.0, 1.0)


def fuzzify(s: QubitState) -> FuzzyQubitState:
    """Squared amplitude magnitudes read as membership grades."""
    return FuzzyQubitState(min(abs(s.a0) ** 2, 1.0), min(abs(s.a1) ** 2, 1.0))


def apply_hadamard(s: QubitState) -> QubitState:
    return QubitState((s.a0 + s.a1) / SQRT2, (s.a0 - s.a1) / SQRT2)


def apply_pauli_x(s: QubitState) -> QubitState:
    return QubitState(s.a1, s.a0)


def apply_pauli_z(s: QubitState) -> QubitState:
    return QubitState(s.a0, -s.a1)


def apply_unitary(s: QubitState, matrix) -> QubitState:
    """Apply a numeric 2x2 unitary (checked unitary within 1e-9)."""
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    # a unitary's entries lie in the unit disk; bounded, u @ u^H cannot overflow
    if not np.all(np.abs(np.stack((u.real, u.imag))) <= 1.0 + NORM_TOL):
        raise ValueError("matrix is not unitary: an entry is not finite or exceeds 1")
    defect = np.abs(u @ u.conj().T - np.eye(2)).max()
    if defect > NORM_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect})")
    b0 = u[0, 0] * s.a0 + u[0, 1] * s.a1
    b1 = u[1, 0] * s.a0 + u[1, 1] * s.a1
    return QubitState(complex(b0), complex(b1))


def defuzzify(s: FuzzyQubitState, method: str = "argmax", seed: int | None = None) -> int:
    """Collapse a fuzzy state to a basis outcome.

    ``argmax`` picks the larger grade, ties (within 1e-12) going to 0;
    it never touches randomness.  ``born_sample`` renormalizes the grades
    to a Bernoulli law and draws once from a generator seeded per call,
    so identical seeds give identical outcomes and calls never share state.
    """
    if method == "argmax":
        if abs(s.mu0 - s.mu1) <= TIE_TOL:
            return 0
        return 0 if s.mu0 > s.mu1 else 1
    if method == "born_sample":
        return int(born_sample_many(s, 1, seed)[0])
    raise ValueError(f"unknown defuzzification method {method!r}")


def born_sample_many(s: FuzzyQubitState, draws: int, seed: int | None = None) -> np.ndarray:
    """Vector of outcomes from one seeded stream (see ``defuzzify``)."""
    if not 1 <= draws <= MAX_DRAWS:
        raise ValueError(f"draws must be in 1..{MAX_DRAWS}, got {draws}")
    total = s.mu0 + s.mu1
    if total <= 0.0:
        raise ValueError("cannot sample from an identically zero fuzzy state")
    rng = np.random.default_rng(seed)
    return (rng.random(int(draws)) >= s.mu0 / total).astype(np.int64)


def tensor_product(a: QubitState, b: QubitState) -> TwoQubitState:
    return TwoQubitState(
        (a.a0 * b.a0, a.a0 * b.a1, a.a1 * b.a0, a.a1 * b.a1)
    )


def bell_state() -> TwoQubitState:
    """(|00> + |11>) / sqrt(2)."""
    return TwoQubitState((1.0 / SQRT2, 0.0, 0.0, 1.0 / SQRT2))


def amplitude_determinant(s: TwoQubitState) -> complex:
    """Determinant of the 2x2 amplitude matrix [[c00, c01], [c10, c11]].

    Zero exactly when the state factors as a tensor product of one-qubit
    states; its magnitude is a quantitative entanglement witness.
    """
    c00, c01, c10, c11 = s.amplitudes
    return c00 * c11 - c01 * c10


def is_entangled(s: TwoQubitState, tol: float = 1e-10) -> bool:
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return abs(amplitude_determinant(s)) > tol


def parse_state_literal(text: str) -> QubitState | TwoQubitState:
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
        if len(nums) == 4:
            return QubitState(complex(nums[0], nums[1]), complex(nums[2], nums[3]))
        if len(nums) == 8:
            return TwoQubitState(
                tuple(complex(nums[2 * k], nums[2 * k + 1]) for k in range(4))
            )
        raise ValueError(
            f"amp literal needs 2 or 4 re,im pairs, got {len(nums)} numbers"
        )
    raise ValueError(f"unknown state literal {text!r}")


def random_qubit_state(rng: np.random.Generator) -> QubitState:
    """Haar-ish random normalized state, for tests and demos."""
    parts = rng.normal(size=4)
    z0 = complex(parts[0], parts[1])
    z1 = complex(parts[2], parts[3])
    norm = math.sqrt(abs(z0) ** 2 + abs(z1) ** 2)
    if norm == 0.0:
        return ket0()
    return QubitState(z0 / norm, z1 / norm)
