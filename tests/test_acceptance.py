"""Acceptance gate: the numbered checks the package promises to pass.

Each test covers one criterion at its stated tolerance and prints one
PASS line on success (visible with ``pytest -rA`` or ``-s``); a failure
reads as that criterion's FAIL with the offending numbers in the assert
message.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    MeasureSpec,
    WavefunctionSpec,
    apply_hadamard,
    amplitude_determinant,
    born_sample_many,
    bell_state,
    check_additivity,
    fuzzify,
    fuzzy_complement,
    fuzzy_intersection,
    fuzzy_union,
    grid_tolerance,
    is_entangled,
    ket0,
    ket1,
    localize,
    measure_of,
    realize_density,
    sugeno_integral,
    tensor_product,
    union_all,
    zeros_then_ones_language,
)

from oracles import random_qubit_state, sugeno_bruteforce_oracle, total_length

ERF_ONE_SIGMA = 0.6826894921370859  # erf(1 / sqrt(2))


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def standard_normal_grid(n=10001) -> GridFunction:
    xs = np.linspace(-8.0, 8.0, n)
    return GridFunction(-8.0, 8.0, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi))


def test_accept_01_gaussian_localization():
    start = time.perf_counter()
    result = localize(WavefunctionSpec.gaussian(0.0, 1.0), -1.0, 1.0)
    elapsed = time.perf_counter() - start
    error = abs(result.probability - ERF_ONE_SIGMA)
    assert error <= 1e-4, f"probability off by {error}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(
        "gaussian localization",
        f"probability {result.probability:.9f} vs 0.682689 (err {error:.2e}), "
        f"{elapsed * 1000:.0f} ms at 10001 points",
    )


def test_accept_02_plausible_event_law():
    density = realize_density(WavefunctionSpec.gaussian(0.0, 1.0))
    pi = density.scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for _ in range(50):
        a = -float(rng.uniform(0.01, 8.0))
        b = float(rng.uniform(0.01, 8.0))
        possibility = measure_of(m, IntervalSet.interval(a, b))
        worst = max(worst, abs(possibility - 1.0))
    assert worst <= 1e-9, f"worst deviation from 1 is {worst}"
    report(
        "plausible-event law",
        f"50 mode-containing intervals, max |possibility - 1| = {worst:.2e}",
    )


def _random_possibilistic(rng, labels):
    grades = rng.random(len(labels))
    grades[rng.integers(len(labels))] = 1.0
    return MeasureSpec.possibilistic(FiniteFuzzySet(labels, grades))


def _random_additive_table(rng, labels):
    weights = rng.random(len(labels)) + 1e-3
    total = float(weights.sum())
    table = {}
    for bits in range(2 ** len(labels)):
        subset = tuple(l for k, l in enumerate(labels) if bits & (1 << k))
        if len(subset) == len(labels):
            table[subset] = 1.0
        else:
            table[subset] = float(
                sum(weights[k] for k in range(len(labels)) if bits & (1 << k))
                / total
            )
    return MeasureSpec.from_table(labels, table)


def test_accept_03_sugeno_oracle_equivalence():
    f = FiniteFuzzySet(("x1", "x2", "x3"), [0.2, 0.5, 0.9])
    pi = FiniteFuzzySet(("x1", "x2", "x3"), [1.0, 0.6, 0.3])
    worked = sugeno_integral(f, None, MeasureSpec.possibilistic(pi))
    assert worked == 0.5, f"worked instance gave {worked!r}"

    rng = np.random.default_rng(314159)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(1, 9))
        labels = tuple(f"e{i}" for i in range(n))
        integrand = FiniteFuzzySet(labels, rng.random(n))
        if trial % 5 == 0 and n <= 6:
            m = _random_additive_table(rng, labels)
        else:
            m = _random_possibilistic(rng, labels)
        event = [l for l in labels if rng.random() < 0.7] or None
        exact = sugeno_integral(integrand, event, m)
        approx = sugeno_bruteforce_oracle(integrand, event, m, grid=1_000_001)
        worst = max(worst, abs(exact - approx))
    assert worst <= 1e-6, f"worst oracle disagreement {worst}"
    report(
        "sugeno oracle equivalence",
        f"worked instance exactly 0.5; 500 random instances, "
        f"max |exact - oracle| = {worst:.2e}",
    )


def test_accept_04_sugeno_fixed_point():
    pi = realize_density(WavefunctionSpec.gaussian(0.0, 1.0)).scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    tol = grid_tolerance(pi)
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(200):
        bounds = np.sort(rng.uniform(-8.0, 8.0, size=2))
        if bounds[0] == bounds[1]:
            continue
        window = IntervalSet.interval(float(bounds[0]), float(bounds[1]))
        target = measure_of(m, window)
        got = sugeno_integral(pi, window, m)
        worst = max(worst, abs(got - target))
    assert worst <= tol, f"worst fixed-point gap {worst} > tolerance {tol}"
    report(
        "sugeno fixed point",
        f"200 random intervals, max |sugeno - sup| = {worst:.2e} "
        f"(grid tolerance {tol:.2e})",
    )


def test_accept_05_measure_axioms():
    density = standard_normal_grid(2001)
    pi = density.scaled_by_max()
    poss = MeasureSpec.possibilistic(pi)
    add = MeasureSpec.additive(standard_normal_grid())
    rng = np.random.default_rng(161803)

    for _ in range(200):
        b = np.sort(rng.uniform(-8.0, 8.0, size=4))
        left = IntervalSet.interval(b[0], b[2])
        right = IntervalSet.interval(b[1], b[3])
        whole = measure_of(poss, union_all([left, right]))
        parts_max = max(measure_of(poss, left), measure_of(poss, right))
        assert whole == parts_max, f"maxitivity broke: {whole} vs {parts_max}"

    worst_split = 0.0
    for _ in range(100):
        cuts = np.sort(rng.uniform(-4.0, 4.0, size=2))
        parts = [
            IntervalSet.interval(-4.0, cuts[0]),
            IntervalSet.interval(cuts[0], cuts[1]),
            IntervalSet.interval(cuts[1], 4.0),
        ]
        if any(total_length(p) == 0.0 for p in parts):
            continue
        whole = measure_of(add, IntervalSet.interval(-4.0, 4.0))
        split = math.fsum(measure_of(add, p) for p in parts)
        worst_split = max(worst_split, abs(whole - split))
        assert check_additivity(add, parts, tol=1e-6)
    assert worst_split <= 1e-6

    for _ in range(500):
        b = np.sort(rng.uniform(-8.0, 8.0, size=4))
        small = IntervalSet.interval(b[1], b[2])
        big = IntervalSet.interval(b[0], b[3])
        for m in (poss, add):
            gap = measure_of(m, small) - measure_of(m, big)
            assert gap <= 1e-12, f"monotonicity broke by {gap}"

    with pytest.raises(ValueError, match="monotone"):
        MeasureSpec.from_table(
            ("a", "b", "c"),
            {
                (): 0.0,
                ("a",): 0.7,
                ("b",): 0.1,
                ("c",): 0.1,
                ("a", "b"): 0.2,
                ("a", "c"): 0.8,
                ("b", "c"): 0.3,
                ("a", "b", "c"): 1.0,
            },
        )
    report(
        "measure axioms",
        "maxitivity exact on 200 pairs; 3-part splits within "
        f"{max(worst_split, 0.0):.2e}; monotone on 500 nested pairs; "
        "non-monotone table rejected",
    )


def test_accept_06_quantum_identities():
    inv = 1.0 / math.sqrt(2.0)
    h0 = apply_hadamard(ket0())
    h1 = apply_hadamard(ket1())
    (h00, h01), (h10, h11) = h0.amplitudes, h1.amplitudes
    assert abs(h00 - inv) <= 1e-12 and abs(h01 - inv) <= 1e-12
    assert abs(h10 - inv) <= 1e-12 and abs(h11 + inv) <= 1e-12

    rng = np.random.default_rng(577215)
    worst = 0.0
    for _ in range(1000):
        s = random_qubit_state(rng)
        back = apply_hadamard(apply_hadamard(s))
        worst = max(worst, *(abs(b - a) for b, a in zip(back.amplitudes, s.amplitudes)))
    assert worst <= 1e-12, f"H twice drifted by {worst}"

    f = fuzzify(h0)
    assert f.universe == ("0", "1") and np.all(np.abs(f.grades - 0.5) <= 1e-12)
    report(
        "quantum identities",
        f"H on basis states matches closed form; H twice = identity "
        f"within {worst:.2e} on 1000 states; fuzzified H|0> = (0.5, 0.5)",
    )


def test_accept_07_entanglement_detector():
    bell = bell_state()
    det = abs(amplitude_determinant(bell))
    assert abs(det - 0.5) <= 1e-12, f"bell determinant {det}"
    assert is_entangled(bell)

    rng = np.random.default_rng(141421)
    worst = 0.0
    for _ in range(1000):
        product = tensor_product(random_qubit_state(rng), random_qubit_state(rng))
        worst = max(worst, abs(amplitude_determinant(product)))
        assert not is_entangled(product, tol=1e-10)
    report(
        "entanglement detector",
        f"bell |det| = {det:.15f}; 1000 product states all below tol "
        f"(max |det| = {worst:.2e})",
    )


def test_accept_08_born_sampling():
    outcomes = born_sample_many(FiniteFuzzySet(("0", "1"), [0.5, 0.5]), 100000, seed=0)
    freq0 = float(np.mean(outcomes == 0))
    assert 0.494 <= freq0 <= 0.506, f"frequency of outcome 0 was {freq0}"
    report("born sampling", f"100000 seeded draws, frequency of 0 = {freq0:.5f}")


def test_accept_09_fuzzy_language():
    lang = zeros_then_ones_language()
    checked = 0
    for i in range(1, 31):
        for j in range(1, 31):
            if i == j:
                continue
            got = lang.grade_exact("0" * i + "1" * j)
            want = Fraction(min(i, j), max(i, j))
            assert got == want, f"0^{i} 1^{j}: {got} != {want}"
            checked += 1

    proc = subprocess.run(
        [sys.executable, "-m", "vagueq", "lang", "grade", "--word", "00111"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "grade = 0.666666667\n", f"got {proc.stdout!r}"
    report(
        "fuzzy language",
        f"{checked} block words graded exactly; CLI prints 0.666666667 for 00111",
    )


def test_accept_10_fuzzy_algebra():
    rng = np.random.default_rng(662607)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        labels = tuple(f"x{i}" for i in range(n))
        a = FiniteFuzzySet(labels, rng.random(n))
        b = FiniteFuzzySet(labels, rng.random(n))

        lhs = fuzzy_complement(fuzzy_union(a, b))
        rhs = fuzzy_intersection(fuzzy_complement(a), fuzzy_complement(b))
        assert np.array_equal(lhs.grades, rhs.grades), "De Morgan broke"

        assert fuzzy_union(a, a) == a and fuzzy_intersection(a, a) == a

        back = fuzzy_complement(fuzzy_complement(a))
        assert back == a, "involution broke"
    report(
        "fuzzy algebra",
        "De Morgan, idempotence, involution exact on 1000 random pairs",
    )


DOCUMENTED_EXAMPLES = (
    [
        "localize",
        "--wavefunction",
        "gaussian:mu=0,sigma=1",
        "--interval",
        "-1,1",
        "--grid",
        "10001",
    ],
    ["qubit", "--init", "0", "--gate", "H", "--report", "memberships"],
    ["lang", "grade", "--word", "00111"],
    ["entangle", "--state", "bell"],
)


def test_accept_11_cli_determinism():
    for example in DOCUMENTED_EXAMPLES:
        argv = [sys.executable, "-m", "vagueq", *example]
        runs = [
            subprocess.run(argv, capture_output=True, timeout=120)
            for _ in range(3)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr.decode()
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout, (
            f"output of {' '.join(example)} varied between runs"
        )
    report(
        "cli determinism",
        f"{len(DOCUMENTED_EXAMPLES)} documented examples, 3 runs each, "
        "byte-identical stdout",
    )
