import math

import numpy as np
import pytest

from vagueq import (
    FuzzyQubitState,
    QubitState,
    TwoQubitState,
    amplitude_determinant,
    apply_gates,
    apply_hadamard,
    apply_pauli_x,
    apply_pauli_z,
    apply_unitary,
    bell_state,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    ket0,
    ket1,
    parse_state_literal,
    tensor_product,
)
from vagueq.qubits import MAX_DRAWS

from oracles import random_qubit_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def assert_state(s: QubitState, a0: complex, a1: complex, tol=1e-12):
    assert abs(s.a0 - a0) <= tol
    assert abs(s.a1 - a1) <= tol


# --- state validation -----------------------------------------------------------

def test_states_must_be_normalized():
    QubitState(INV_SQRT2, INV_SQRT2)
    with pytest.raises(ValueError, match="norm"):
        QubitState(1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        QubitState(float("nan"), 0.0)
    with pytest.raises(ValueError, match="norm"):
        TwoQubitState((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="4 amplitudes"):
        TwoQubitState((1.0, 0.0, 0.0))


def test_norm_slack_admits_roundoff():
    QubitState(math.sqrt(1.0 + 5e-10), 0.0)


def test_fuzzy_states_accept_unnormalized_grades():
    s = FuzzyQubitState(0.8, 0.5)
    assert (s.mu0, s.mu1) == (0.8, 0.5)
    assert not s.born_compatible
    assert FuzzyQubitState(0.5, 0.5).born_compatible
    with pytest.raises(ValueError):
        FuzzyQubitState(1.2, 0.1)
    with pytest.raises(ValueError):
        FuzzyQubitState(-0.1, 0.0)


# --- gates ------------------------------------------------------------------------

def test_hadamard_on_basis_states():
    assert_state(apply_hadamard(ket0()), INV_SQRT2, INV_SQRT2)
    assert_state(apply_hadamard(ket1()), INV_SQRT2, -INV_SQRT2)


def test_hadamard_is_an_involution():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        s = random_qubit_state(rng)
        back = apply_hadamard(apply_hadamard(s))
        assert abs(back.a0 - s.a0) <= 1e-12
        assert abs(back.a1 - s.a1) <= 1e-12


def test_hadamard_preserves_norm():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        s = random_qubit_state(rng)
        t = apply_hadamard(s)
        assert abs(abs(t.a0) ** 2 + abs(t.a1) ** 2 - 1.0) <= 1e-12


def test_pauli_gates():
    assert_state(apply_pauli_x(ket0()), 0.0, 1.0)
    assert_state(apply_pauli_x(ket1()), 1.0, 0.0)
    s = QubitState(INV_SQRT2, INV_SQRT2)
    assert_state(apply_pauli_z(s), INV_SQRT2, -INV_SQRT2)


def test_numeric_unitary_matches_named_gates():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rng = np.random.default_rng(44)
    for _ in range(100):
        s = random_qubit_state(rng)
        via_matrix = apply_unitary(s, h)
        direct = apply_hadamard(s)
        assert abs(via_matrix.a0 - direct.a0) <= 1e-12
        assert abs(via_matrix.a1 - direct.a1) <= 1e-12


def test_gate_literals_apply_the_gates_bit_for_bit():
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    literal = "u:0.6,0,0,0.8,0,0.8,0.6,0"
    rng = np.random.default_rng(45)
    for _ in range(50):
        s = random_qubit_state(rng)
        for gates, direct in (
            (["H"], apply_hadamard(s)),
            (["X"], apply_pauli_x(s)),
            ([" Z "], apply_pauli_z(s)),
            ([literal], apply_unitary(s, u)),
            (["H", "Z", literal], apply_unitary(apply_pauli_z(apply_hadamard(s)), u)),
        ):
            assert apply_gates(s, gates) == direct, gates
    assert apply_gates(ket1(), []) == ket1()


def test_gate_literal_errors_come_in_gate_order():
    # each gate is parsed and applied before the next one is read
    with pytest.raises(ValueError, match="not unitary"):
        apply_gates(ket0(), ["u:1,0,0,0,0,0,2,0", "Q"])
    for gates, message in (
        (["Q", "u:1,2"], "unknown gate 'Q'; use H, X, Z, or u:8 numbers"),
        (["H", "u:1,2", "Q"], "u: gate needs 8 numbers (re,im per entry, row-major)"),
        (["X", "u:1,x,0,0,0,0,1,0"], "cannot parse gate 'u:1,x,0,0,0,0,1,0'"),
    ):
        with pytest.raises(ValueError) as caught:
            apply_gates(ket0(), gates)
        assert str(caught.value) == message


def test_non_unitary_matrices_are_rejected():
    with pytest.raises(ValueError, match="unitary"):
        apply_unitary(ket0(), [[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="2x2"):
        apply_unitary(ket0(), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# --- fuzzification -----------------------------------------------------------------

def test_fuzzify_squares_amplitudes():
    assert fuzzify(ket0()) == FuzzyQubitState(1.0, 0.0)
    plus = apply_hadamard(ket0())
    f = fuzzify(plus)
    assert abs(f.mu0 - 0.5) <= 1e-12
    assert abs(f.mu1 - 0.5) <= 1e-12


def test_equal_superposition_means_equal_partial_membership():
    # the half-and-half state carries grade 0.5 in each outcome: partial
    # membership in both, full membership in neither
    cat = QubitState(INV_SQRT2, INV_SQRT2)
    f = fuzzify(cat)
    assert abs(f.mu0 - 0.5) <= 1e-12
    assert abs(f.mu1 - 0.5) <= 1e-12
    assert f.born_compatible


def test_fuzzified_physical_states_are_born_compatible():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        f = fuzzify(random_qubit_state(rng))
        assert abs(f.mu0 + f.mu1 - 1.0) <= 1e-9


# --- defuzzification ----------------------------------------------------------------

def test_argmax_defuzzification():
    assert defuzzify(FuzzyQubitState(0.9, 0.1)) == 0
    assert defuzzify(FuzzyQubitState(0.1, 0.9)) == 1
    # documented tie rule: equal grades collapse to 0
    assert defuzzify(FuzzyQubitState(0.5, 0.5)) == 0
    assert defuzzify(FuzzyQubitState(0.3, 0.3 + 1e-13)) == 0


def test_argmax_is_scale_invariant():
    rng = np.random.default_rng(46)
    for _ in range(200):
        mu0, mu1 = rng.random(2)
        if abs(mu0 - mu1) <= 1e-9:
            continue
        scale = rng.uniform(0.05, 1.0) / max(mu0, mu1)
        a = defuzzify(FuzzyQubitState(mu0, mu1))
        b = defuzzify(FuzzyQubitState(mu0 * scale, mu1 * scale))
        assert a == b


def test_born_sampling_is_seed_deterministic():
    s = FuzzyQubitState(0.5, 0.5)
    outcomes = {defuzzify(s, "born_sample", seed=k) for k in range(64)}
    assert outcomes == {0, 1}
    for k in range(16):
        assert defuzzify(s, "born_sample", seed=k) == defuzzify(
            s, "born_sample", seed=k
        )


def test_born_sampling_matches_the_stream_head():
    s = FuzzyQubitState(0.3, 0.6)
    for seed in range(16):
        assert defuzzify(s, "born_sample", seed=seed) == int(
            born_sample_many(s, 5, seed=seed)[0]
        )


def test_born_sampling_normalizes_grades():
    # unnormalized (0.2, 0.2) samples like (0.5, 0.5)
    a = born_sample_many(FuzzyQubitState(0.2, 0.2), 1000, seed=9)
    b = born_sample_many(FuzzyQubitState(0.5, 0.5), 1000, seed=9)
    assert np.array_equal(a, b)


def test_born_frequency_near_one_half():
    draws = born_sample_many(FuzzyQubitState(0.5, 0.5), 100000, seed=0)
    freq0 = float(np.mean(draws == 0))
    assert 0.494 <= freq0 <= 0.506


def test_degenerate_sampling_is_an_error():
    zero = FuzzyQubitState(0.0, 0.0)
    with pytest.raises(ValueError, match="zero"):
        defuzzify(zero, "born_sample", seed=1)
    with pytest.raises(ValueError, match="zero"):
        born_sample_many(zero, 10, seed=1)
    with pytest.raises(ValueError, match="draws"):
        born_sample_many(FuzzyQubitState(0.5, 0.5), 0, seed=1)
    with pytest.raises(ValueError, match="draws"):
        born_sample_many(FuzzyQubitState(0.5, 0.5), MAX_DRAWS + 1, seed=1)
    with pytest.raises(ValueError, match="method"):
        defuzzify(FuzzyQubitState(0.5, 0.5), "centroid")


def test_sure_outcomes_sample_deterministically():
    assert np.all(born_sample_many(FuzzyQubitState(1.0, 0.0), 100, seed=3) == 0)
    assert np.all(born_sample_many(FuzzyQubitState(0.0, 1.0), 100, seed=3) == 1)


# --- two qubits -------------------------------------------------------------------

def test_tensor_product_of_basis_states():
    assert tensor_product(ket0(), ket1()).amplitudes == (0.0, 1.0, 0.0, 0.0)
    assert tensor_product(ket1(), ket1()).amplitudes == (0.0, 0.0, 0.0, 1.0)
    mixed = tensor_product(apply_hadamard(ket0()), ket0())
    expected = (INV_SQRT2, 0.0, INV_SQRT2, 0.0)
    for got, want in zip(mixed.amplitudes, expected):
        assert abs(got - want) <= 1e-12


def test_bell_state_is_entangled():
    bell = bell_state()
    assert abs(abs(amplitude_determinant(bell)) - 0.5) <= 1e-12
    assert is_entangled(bell)


def test_product_states_are_never_flagged():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        s = tensor_product(random_qubit_state(rng), random_qubit_state(rng))
        assert abs(amplitude_determinant(s)) <= 1e-12
        assert not is_entangled(s, tol=1e-10)


def test_uniform_plus_state_factorizes():
    plus_plus = TwoQubitState((0.5, 0.5, 0.5, 0.5))
    assert not is_entangled(plus_plus)


def test_entanglement_tolerance_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        is_entangled(bell_state(), tol=0.0)


# --- text literals -----------------------------------------------------------------

def test_state_literals():
    assert parse_state_literal("|0>") == ket0()
    assert parse_state_literal("|1>") == ket1()
    assert parse_state_literal("bell") == bell_state()
    s = parse_state_literal("amp 0.6,0,0.8,0")
    assert_state(s, 0.6, 0.8)
    t = parse_state_literal("amp 0.5,0,0.5,0,0.5,0,0.5,0")
    assert isinstance(t, TwoQubitState)


def test_bad_state_literals():
    with pytest.raises(ValueError, match="unknown state literal"):
        parse_state_literal("|2>")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_state_literal("amp x,y")
    with pytest.raises(ValueError, match="pairs"):
        parse_state_literal("amp 1,0,0")


def test_random_states_are_normalized():
    rng = np.random.default_rng(48)
    for _ in range(100):
        s = random_qubit_state(rng)
        assert abs(abs(s.a0) ** 2 + abs(s.a1) ** 2 - 1.0) <= 1e-12
