import math

import numpy as np
import pytest

from vagueq import (
    FiniteFuzzySet,
    MeasureSpec,
    Register,
    amplitude_determinant,
    apply_gates,
    apply_hadamard,
    apply_pauli_x,
    apply_pauli_z,
    apply_unitary,
    bell_state,
    born_compatible,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    ket0,
    ket1,
    parse_state_literal,
    sugeno_integral,
    tensor_product,
)
from vagueq.qubits import MAX_DRAWS

from oracles import born_bernoulli_oracle, random_qubit_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TWO_QUBIT_LABELS = ("00", "01", "10", "11")


def fuzzy(mu0: float, mu1: float) -> FiniteFuzzySet:
    """A one-qubit fuzzy state: grades of the outcomes "0" and "1"."""
    return FiniteFuzzySet(("0", "1"), [mu0, mu1])


def assert_state(s: Register, a0: complex, a1: complex, tol=1e-12):
    b0, b1 = s.amplitudes
    assert abs(b0 - a0) <= tol
    assert abs(b1 - a1) <= tol


def norm_sq(s: Register) -> float:
    return sum(abs(z) ** 2 for z in s.amplitudes)


# --- state validation -----------------------------------------------------------

def test_states_must_be_normalized():
    s = Register((INV_SQRT2, INV_SQRT2))
    assert (s.qubits, s.labels) == (1, ("0", "1"))
    with pytest.raises(ValueError, match="norm"):
        Register((1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Register((float("nan"), 0.0))
    with pytest.raises(ValueError, match="norm"):
        Register((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="2 or 4 amplitudes"):
        Register((1.0, 0.0, 0.0))
    assert (bell_state().qubits, bell_state().labels) == (2, TWO_QUBIT_LABELS)


def test_norm_slack_admits_roundoff():
    Register((math.sqrt(1.0 + 5e-10), 0.0))


def test_fuzzy_states_accept_unnormalized_grades():
    s = fuzzy(0.8, 0.5)
    assert s.grades.tolist() == [0.8, 0.5]
    assert not born_compatible(s)
    assert born_compatible(fuzzy(0.5, 0.5))
    with pytest.raises(ValueError):
        fuzzy(1.2, 0.1)
    with pytest.raises(ValueError):
        fuzzy(-0.1, 0.0)


def test_registers_of_the_wrong_size_are_refused():
    for gate in (apply_hadamard, apply_pauli_x, apply_pauli_z,
                 lambda s: apply_unitary(s, np.eye(2)), lambda s: apply_gates(s, ["H"])):
        with pytest.raises(ValueError, match="expected a 1-qubit register, got 2 qubits"):
            gate(bell_state())
    with pytest.raises(ValueError, match="expected a 2-qubit register, got 1 qubits"):
        amplitude_determinant(ket0())
    with pytest.raises(ValueError, match="2 or 4 amplitudes"):
        tensor_product(bell_state(), ket0())


# --- gates ------------------------------------------------------------------------

def test_hadamard_on_basis_states():
    assert_state(apply_hadamard(ket0()), INV_SQRT2, INV_SQRT2)
    assert_state(apply_hadamard(ket1()), INV_SQRT2, -INV_SQRT2)


def test_hadamard_is_an_involution():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        s = random_qubit_state(rng)
        back = apply_hadamard(apply_hadamard(s))
        assert_state(back, *s.amplitudes)


def test_hadamard_preserves_norm():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        s = random_qubit_state(rng)
        t = apply_hadamard(s)
        assert abs(norm_sq(t) - 1.0) <= 1e-12


def test_pauli_gates():
    assert_state(apply_pauli_x(ket0()), 0.0, 1.0)
    assert_state(apply_pauli_x(ket1()), 1.0, 0.0)
    s = Register((INV_SQRT2, INV_SQRT2))
    assert_state(apply_pauli_z(s), INV_SQRT2, -INV_SQRT2)


def test_numeric_unitary_matches_named_gates():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rng = np.random.default_rng(44)
    for _ in range(100):
        s = random_qubit_state(rng)
        via_matrix = apply_unitary(s, h)
        direct = apply_hadamard(s)
        assert_state(via_matrix, *direct.amplitudes)


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
    assert fuzzify(ket0()) == fuzzy(1.0, 0.0)
    plus = apply_hadamard(ket0())
    f = fuzzify(plus)
    assert np.all(np.abs(f.grades - 0.5) <= 1e-12)
    # each grade in Python floats: numpy's complex abs rounds differently
    rng = np.random.default_rng(51)
    for _ in range(1000):
        s = random_qubit_state(rng)
        assert fuzzify(s).grades.tolist() == [min(abs(z) ** 2, 1.0) for z in s.amplitudes]


def test_equal_superposition_means_equal_partial_membership():
    # the half-and-half state carries grade 0.5 in each outcome: partial
    # membership in both, full membership in neither
    cat = Register((INV_SQRT2, INV_SQRT2))
    f = fuzzify(cat)
    assert np.all(np.abs(f.grades - 0.5) <= 1e-12)
    assert born_compatible(f)


def test_fuzzified_physical_states_are_born_compatible():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        f = fuzzify(random_qubit_state(rng))
        assert abs(f.grades.sum() - 1.0) <= 1e-9
        assert born_compatible(f)


# --- defuzzification ----------------------------------------------------------------

def test_argmax_defuzzification():
    assert defuzzify(fuzzy(0.9, 0.1)) == 0
    assert defuzzify(fuzzy(0.1, 0.9)) == 1
    # documented tie rule: equal grades collapse to 0
    assert defuzzify(fuzzy(0.5, 0.5)) == 0
    assert defuzzify(fuzzy(0.3, 0.3 + 1e-13)) == 0


def test_argmax_is_scale_invariant():
    rng = np.random.default_rng(46)
    for _ in range(200):
        mu0, mu1 = rng.random(2)
        if abs(mu0 - mu1) <= 1e-9:
            continue
        scale = rng.uniform(0.05, 1.0) / max(mu0, mu1)
        a = defuzzify(fuzzy(mu0, mu1))
        b = defuzzify(fuzzy(mu0 * scale, mu1 * scale))
        assert a == b


def test_born_sampling_is_seed_deterministic():
    s = fuzzy(0.5, 0.5)
    outcomes = {defuzzify(s, "born_sample", seed=k) for k in range(64)}
    assert outcomes == {0, 1}
    for k in range(16):
        assert defuzzify(s, "born_sample", seed=k) == defuzzify(
            s, "born_sample", seed=k
        )


def test_born_sampling_matches_the_stream_head():
    s = fuzzy(0.3, 0.6)
    for seed in range(16):
        assert defuzzify(s, "born_sample", seed=seed) == int(
            born_sample_many(s, 5, seed=seed)[0]
        )
    # seeded draws keep their bits: the two-outcome threshold on one stream,
    # with zero grades, equal grades and grades 1e-13 apart among the cases
    rng = np.random.default_rng(49)
    for case in range(2000):
        mu0, mu1 = rng.random(2)
        kind = case % 5
        if kind == 1:
            mu0, mu1 = (0.0, mu1) if case % 2 else (mu0, 0.0)
        elif kind == 2:
            mu1 = mu0
        elif kind == 3:
            mu1 = min(mu0 + 1e-13, 1.0)
        draws, seed = int(rng.integers(1, 200)), int(rng.integers(0, 2**32))
        got = born_sample_many(fuzzy(mu0, mu1), draws, seed=seed)
        assert np.array_equal(got, born_bernoulli_oracle(mu0, mu1, draws, seed)), (
            mu0, mu1, draws, seed
        )


def test_born_sampling_normalizes_grades():
    # unnormalized (0.2, 0.2) samples like (0.5, 0.5)
    a = born_sample_many(fuzzy(0.2, 0.2), 1000, seed=9)
    b = born_sample_many(fuzzy(0.5, 0.5), 1000, seed=9)
    assert np.array_equal(a, b)


def test_born_frequency_near_one_half():
    draws = born_sample_many(fuzzy(0.5, 0.5), 100000, seed=0)
    freq0 = float(np.mean(draws == 0))
    assert 0.494 <= freq0 <= 0.506


def test_degenerate_sampling_is_an_error():
    zero = fuzzy(0.0, 0.0)
    with pytest.raises(ValueError, match="zero"):
        defuzzify(zero, "born_sample", seed=1)
    with pytest.raises(ValueError, match="zero"):
        born_sample_many(zero, 10, seed=1)
    with pytest.raises(ValueError, match="draws"):
        born_sample_many(fuzzy(0.5, 0.5), 0, seed=1)
    with pytest.raises(ValueError, match="draws"):
        born_sample_many(fuzzy(0.5, 0.5), MAX_DRAWS + 1, seed=1)
    with pytest.raises(ValueError, match="method"):
        defuzzify(fuzzy(0.5, 0.5), "centroid")


def test_sure_outcomes_sample_deterministically():
    assert np.all(born_sample_many(fuzzy(1.0, 0.0), 100, seed=3) == 0)
    assert np.all(born_sample_many(fuzzy(0.0, 1.0), 100, seed=3) == 1)


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
    plus_plus = Register((0.5, 0.5, 0.5, 0.5))
    assert not is_entangled(plus_plus)


def test_bell_state_fuzzifies_to_four_labels():
    f = fuzzify(bell_state())
    assert f.universe == TWO_QUBIT_LABELS
    assert np.all(np.abs(f.grades - np.array([0.5, 0.0, 0.0, 0.5])) <= 1e-12)
    assert f.grades[1] == f.grades[2] == 0.0
    assert defuzzify(f) == 0  # the tie between "00" and "11" goes to "00"
    assert born_compatible(f)


def test_fuzzify_cannot_see_relative_phase():
    # (|00> + |01> + |10> - |11>) / 2 is entangled, |++> is a product state,
    # yet their grades agree bit for bit; only the determinant tells them apart
    phase = Register((0.5, 0.5, 0.5, -0.5))
    plus_plus = Register((0.5, 0.5, 0.5, 0.5))
    assert fuzzify(phase) == fuzzify(plus_plus)
    assert abs(amplitude_determinant(phase)) == 0.5
    assert abs(amplitude_determinant(plus_plus)) == 0.0


def test_a_fuzzified_register_is_read_by_the_sugeno_integral():
    # against a possibility measure, the Sugeno integral is max over labels
    # of min(grade, pi), exactly
    rng = np.random.default_rng(50)
    for _ in range(200):
        s = tensor_product(random_qubit_state(rng), random_qubit_state(rng))
        if rng.random() < 0.5:  # half the time, permuted amplitudes: mostly entangled
            s = Register(rng.permutation(np.array(s.amplitudes)).tolist())
        pi_grades = rng.random(4)
        pi_grades[rng.integers(4)] = 1.0
        pi = FiniteFuzzySet(TWO_QUBIT_LABELS, pi_grades)
        f = fuzzify(s)
        want = max(min(g, p) for g, p in zip(f.grades.tolist(), pi_grades.tolist()))
        assert sugeno_integral(f, None, MeasureSpec.possibilistic(pi)) == want


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
    assert t == Register((0.5, 0.5, 0.5, 0.5)) and t.qubits == 2


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
        assert abs(norm_sq(s) - 1.0) <= 1e-12
