import math
import subprocess
import sys

import numpy as np
import pytest

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    WavefunctionSpec,
    read_grid_csv,
    realize_density,
    write_fuzzy_set,
    write_grid_csv,
    write_table_measure,
    MeasureSpec,
)
from vagueq.cli import main
from vagueq.localize import GaussianWavefunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.strip().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


@pytest.fixture
def normal_csv(tmp_path):
    xs = np.linspace(-8.0, 8.0, 10001)
    density = GridFunction(
        -8.0, 8.0, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    )
    path = tmp_path / "normal.csv"
    write_grid_csv(density, path)
    return str(path)


@pytest.fixture
def pi_finite(tmp_path):
    path = tmp_path / "pi.txt"
    write_fuzzy_set(FiniteFuzzySet(("x1", "x2", "x3"), [1.0, 0.6, 0.3]), path)
    return str(path)


@pytest.fixture
def f_finite(tmp_path):
    path = tmp_path / "f.txt"
    write_fuzzy_set(FiniteFuzzySet(("x1", "x2", "x3"), [0.2, 0.5, 0.9]), path)
    return str(path)


# --- documented examples -------------------------------------------------------

def test_localize_documented_example(capsys):
    code, out, err = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "gaussian:mu=0,sigma=1",
        "--interval",
        "-1,1",
        "--grid",
        "10001",
    )
    assert code == 0 and err == ""
    values = out_lines(out)
    assert abs(float(values["probability"]) - 0.682689) <= 1e-4
    assert values["possibility"] == "1.000000000"
    assert values["a"] == "-1.000000000"


def test_qubit_documented_example(capsys):
    code, out, err = run_cli(
        capsys, "qubit", "--init", "0", "--gate", "H", "--report", "memberships"
    )
    assert code == 0
    values = out_lines(out)
    assert values["mu0"] == "0.500000000"
    assert values["mu1"] == "0.500000000"
    assert values["born_compatible"] == "true"


def test_lang_documented_example(capsys):
    code, out, err = run_cli(capsys, "lang", "grade", "--word", "00111")
    assert code == 0
    assert out_lines(out)["grade"] == "0.666666667"


def test_bell_state_detection(capsys):
    code, out, _ = run_cli(capsys, "entangle", "--state", "bell")
    assert code == 0
    values = out_lines(out)
    assert values["det"] == "0.500000000"
    assert values["entangled"] == "true"


def test_tensor_pairs_are_not_entangled(capsys):
    code, out, _ = run_cli(capsys, "entangle", "--a", "|0>", "--b", "|1>")
    assert code == 0
    values = out_lines(out)
    assert values["det"] == "0.000000000"
    assert values["entangled"] == "false"


# --- fuzzy subcommand -----------------------------------------------------------

def test_fuzzy_union_and_output_file(capsys, tmp_path):
    a_path = tmp_path / "a.txt"
    b_path = tmp_path / "b.txt"
    out_path = tmp_path / "u.txt"
    write_fuzzy_set(FiniteFuzzySet(("p", "q"), [0.3, 0.8]), a_path)
    write_fuzzy_set(FiniteFuzzySet(("p", "q"), [0.7, 0.2]), b_path)
    code, out, _ = run_cli(
        capsys,
        "fuzzy",
        "union",
        "--a",
        str(a_path),
        "--b",
        str(b_path),
        "--out",
        str(out_path),
    )
    assert code == 0
    values = out_lines(out)
    assert values["p"] == "0.700000000"
    assert values["q"] == "0.800000000"
    assert out_path.exists()


def test_fuzzy_product_tconorm(capsys, tmp_path):
    a_path = tmp_path / "a.txt"
    b_path = tmp_path / "b.txt"
    write_fuzzy_set(FiniteFuzzySet(("x",), [0.3]), a_path)
    write_fuzzy_set(FiniteFuzzySet(("x",), [0.7]), b_path)
    code, out, _ = run_cli(
        capsys,
        "fuzzy",
        "union",
        "--a",
        str(a_path),
        "--b",
        str(b_path),
        "--tnorm",
        "product",
    )
    assert code == 0
    assert out_lines(out)["x"] == "0.790000000"


def test_fuzzy_complement(capsys, tmp_path):
    a_path = tmp_path / "a.txt"
    write_fuzzy_set(FiniteFuzzySet(("x",), [0.3]), a_path)
    code, out, _ = run_cli(capsys, "fuzzy", "complement", "--a", str(a_path))
    assert code == 0
    assert out_lines(out)["x"] == "0.700000000"


def test_fuzzy_union_requires_b(capsys, tmp_path):
    a_path = tmp_path / "a.txt"
    write_fuzzy_set(FiniteFuzzySet(("x",), [0.3]), a_path)
    code, out, err = run_cli(capsys, "fuzzy", "union", "--a", str(a_path))
    assert code == 1
    assert err.startswith("error:")


# --- measure subcommand -----------------------------------------------------------

def test_measure_eval_possibilistic_finite(capsys, pi_finite):
    code, out, _ = run_cli(
        capsys,
        "measure",
        "eval",
        "--measure",
        f"possibilistic:finite={pi_finite}",
        "--subset",
        "x2|x3",
    )
    assert code == 0
    assert out_lines(out)["measure"] == "0.600000000"


def test_measure_eval_additive(capsys, normal_csv):
    code, out, _ = run_cli(
        capsys,
        "measure",
        "eval",
        "--measure",
        f"additive:density={normal_csv}",
        "--interval",
        "-1,1",
    )
    assert code == 0
    values = out_lines(out)
    assert abs(float(values["measure"]) - 0.682689) <= 1e-4
    assert values["normalized"] == "true"


def test_measure_eval_table(capsys, tmp_path):
    m = MeasureSpec.from_table(
        ("a", "b"), {(): 0.0, ("a",): 0.3, ("b",): 0.8, ("a", "b"): 1.0}
    )
    path = tmp_path / "m.txt"
    write_table_measure(m, path)
    code, out, _ = run_cli(
        capsys,
        "measure",
        "eval",
        "--measure",
        f"table:path={path}",
        "--subset",
        "b",
    )
    assert code == 0
    assert out_lines(out)["measure"] == "0.800000000"


def test_measure_eval_needs_exactly_one_event(capsys, pi_finite):
    code, _, err = run_cli(
        capsys, "measure", "eval", "--measure", f"possibilistic:finite={pi_finite}"
    )
    assert code == 1 and "exactly one" in err


def test_measure_check_maxitivity(capsys, tmp_path):
    xs = np.linspace(-8.0, 8.0, 2001)
    pi = GridFunction(-8.0, 8.0, np.exp(-0.5 * xs * xs))
    path = tmp_path / "pi.csv"
    write_grid_csv(pi, path)
    code, out, _ = run_cli(
        capsys,
        "measure",
        "check",
        "--measure",
        f"possibilistic:grid={path}",
        "--check",
        "maxitivity",
        "--parts",
        "-2,1;0,3",
    )
    assert code == 0
    assert out_lines(out)["holds"] == "true"


def test_measure_check_additivity(capsys, normal_csv):
    code, out, _ = run_cli(
        capsys,
        "measure",
        "check",
        "--measure",
        f"additive:density={normal_csv}",
        "--check",
        "additivity",
        "--parts",
        "-2,0;0,2",
        "--tol",
        "1e-9",
    )
    assert code == 0
    assert out_lines(out)["holds"] == "true"


def test_measure_check_rejects_overlapping_parts(capsys, normal_csv):
    code, _, err = run_cli(
        capsys,
        "measure",
        "check",
        "--measure",
        f"additive:density={normal_csv}",
        "--check",
        "additivity",
        "--parts",
        "-2,1;0,2",
    )
    assert code == 1 and "overlap" in err


# --- integrate subcommand -----------------------------------------------------------

def test_integrate_lebesgue(capsys, normal_csv):
    code, out, _ = run_cli(
        capsys,
        "integrate",
        "lebesgue",
        "--density",
        normal_csv,
        "--interval",
        "-1,1",
    )
    assert code == 0
    assert abs(float(out_lines(out)["integral"]) - 0.682689) <= 1e-4


def test_integrate_sugeno_finite(capsys, f_finite, pi_finite):
    code, out, _ = run_cli(
        capsys,
        "integrate",
        "sugeno",
        "--function",
        f"finite:{f_finite}",
        "--measure",
        f"possibilistic:finite={pi_finite}",
        "--subset",
        "x1|x2|x3",
    )
    assert code == 0
    assert out_lines(out)["sugeno"] == "0.500000000"


def test_integrate_sugeno_grid(capsys, tmp_path):
    xs = np.linspace(-8.0, 8.0, 2001)
    pi = GridFunction(-8.0, 8.0, np.exp(-0.5 * xs * xs))
    path = tmp_path / "pi.csv"
    write_grid_csv(pi, path)
    code, out, _ = run_cli(
        capsys,
        "integrate",
        "sugeno",
        "--function",
        f"grid:{path}",
        "--measure",
        f"possibilistic:grid={path}",
        "--interval",
        "-1,1",
    )
    assert code == 0
    values = out_lines(out)
    assert abs(float(values["sugeno"]) - 1.0) <= 1e-6
    assert "grid_tolerance" in values


def test_integrate_sugeno_grid_at_large_levels_returns(tmp_path):
    # the crossing at 2e8 / 3 lies where adjacent floats are wider apart
    # than the bisection tolerance; run in a child so a hang fails the test
    f_path, d_path = tmp_path / "f.csv", tmp_path / "d.csv"
    write_grid_csv(GridFunction(0.0, 1.0, np.linspace(0.0, 2e8, 1001)), f_path)
    write_grid_csv(GridFunction(0.0, 1.0, np.full(1001, 1e8)), d_path)
    run = subprocess.run(
        [sys.executable, "-m", "vagueq", "integrate", "sugeno",
         "--function", f"grid:{f_path}", "--measure", f"additive:density={d_path}",
         "--interval", "0,1"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert math.isclose(float(out_lines(run.stdout)["sugeno"]), 2e8 / 3, rel_tol=1e-12)


# --- localize subcommand --------------------------------------------------------------

def test_localize_sweep_csv(capsys, tmp_path):
    sweep_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "box:n=2,L=1",
        "--interval",
        "0.1,0.9",
        "--grid",
        "1001",
        "--csv",
        str(sweep_path),
        "--sweep-steps",
        "20",
    )
    assert code == 0
    lines = sweep_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "a,b,probability,possibility"
    assert len(lines) == 21
    last = lines[-1].split(",")
    assert float(last[1]) == 0.9


def test_localize_density_dump_round_trips(capsys, tmp_path):
    dump_path = tmp_path / "density.csv"
    code, out, _ = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "gaussian:mu=0,sigma=2",
        "--interval",
        "-1,1",
        "--grid",
        "501",
        "--dump-density",
        str(dump_path),
    )
    assert code == 0
    again = read_grid_csv(dump_path)
    direct = realize_density(WavefunctionSpec.gaussian(0.0, 2.0, grid_points=501))
    assert again.x_min == direct.x_min and again.x_max == direct.x_max
    assert np.array_equal(again.samples, direct.samples)


def test_localize_realizes_the_density_once(capsys, tmp_path, monkeypatch):
    calls = []
    original = GaussianWavefunction._density
    monkeypatch.setattr(
        GaussianWavefunction, "_density", lambda w: calls.append(w) or original(w)
    )
    code, out, err = run_cli(
        capsys, "localize", "--wavefunction", "gaussian:mu=0,sigma=1",
        "--interval", "-1,1", "--grid", "501", "--csv", str(tmp_path / "sweep.csv"),
        "--sweep-steps", "5", "--dump-density", str(tmp_path / "density.csv"),
    )
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_localize_with_time_and_domain(capsys):
    code, out, _ = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "gaussian:mu=0,sigma=1",
        "--domain",
        "-4,4",
        "--interval",
        "-1,1",
        "--grid",
        "2001",
        "--time",
        "-0.5",
    )
    assert code == 0
    assert out_lines(out)["time"] == "-0.500000000"


def test_localize_domain_only_for_gaussian(capsys):
    code, _, err = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "box:n=1,L=1",
        "--domain",
        "0,1",
        "--interval",
        "0.1,0.9",
    )
    assert code == 1 and "gaussian" in err


# --- qubit subcommand ------------------------------------------------------------------

def test_qubit_state_report(capsys):
    code, out, _ = run_cli(
        capsys, "qubit", "--init", "amp 0.6,0,0.8,0", "--report", "state"
    )
    assert code == 0
    values = out_lines(out)
    assert values["a0_re"] == "0.600000000"
    assert values["a1_re"] == "0.800000000"


def test_qubit_gate_chain(capsys):
    # H then H is the identity: back to |0>
    code, out, _ = run_cli(
        capsys, "qubit", "--init", "0", "--gate", "H", "--gate", "H"
    )
    assert code == 0
    values = out_lines(out)
    assert values["mu0"] == "1.000000000"
    assert values["mu1"] == "0.000000000"


def test_qubit_numeric_unitary(capsys):
    inv = 1.0 / math.sqrt(2.0)
    code, out, _ = run_cli(
        capsys,
        "qubit",
        "--init",
        "0",
        "--gate",
        f"u:{inv},0,{inv},0,{inv},0,{-inv},0",
    )
    assert code == 0
    assert out_lines(out)["mu0"] == "0.500000000"


def test_qubit_argmax_tie_rule(capsys):
    code, out, _ = run_cli(
        capsys, "qubit", "--fuzzy", "0.5,0.5", "--report", "defuzz"
    )
    assert code == 0
    assert out_lines(out)["outcome"] == "0"


def test_qubit_born_defuzz_seeded(capsys):
    code, out, _ = run_cli(
        capsys,
        "qubit",
        "--fuzzy",
        "0.5,0.5",
        "--report",
        "defuzz",
        "--method",
        "born_sample",
        "--seed",
        "0",
    )
    assert code == 0
    # frozen: generator seeded with 0 opens at 0.636..., above 0.5
    assert out_lines(out)["outcome"] == "1"


def test_qubit_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("VAGUEQ_SEED", "0")
    code, out, _ = run_cli(
        capsys,
        "qubit",
        "--fuzzy",
        "0.5,0.5",
        "--report",
        "defuzz",
        "--method",
        "born_sample",
    )
    assert code == 0
    assert out_lines(out)["outcome"] == "1"
    monkeypatch.setenv("VAGUEQ_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys,
        "qubit",
        "--fuzzy",
        "0.5,0.5",
        "--report",
        "defuzz",
        "--method",
        "born_sample",
    )
    assert code == 1 and "VAGUEQ_SEED" in err


def test_qubit_sample_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "qubit",
        "--fuzzy",
        "0.5,0.5",
        "--report",
        "sample",
        "--draws",
        "10000",
        "--seed",
        "0",
    )
    assert code == 0
    values = out_lines(out)
    assert values["draws"] == "10000"
    freq0 = float(values["freq0"])
    freq1 = float(values["freq1"])
    assert 0.47 <= freq0 <= 0.53
    assert abs(freq0 + freq1 - 1.0) <= 1e-12


def test_qubit_unnormalized_fuzzy_state(capsys):
    code, out, _ = run_cli(capsys, "qubit", "--fuzzy", "0.8,0.5")
    assert code == 0
    values = out_lines(out)
    assert values["mu0"] == "0.800000000"
    assert values["born_compatible"] == "false"


def test_qubit_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys, "qubit", "--init", "0", "--fuzzy", "0.5,0.5"
    )
    assert code == 1 and "not both" in err
    code, _, err = run_cli(
        capsys, "qubit", "--fuzzy", "0.5,0.5", "--gate", "H"
    )
    assert code == 1 and "amplitudes" in err
    code, _, err = run_cli(
        capsys, "qubit", "--fuzzy", "0.5,0.5", "--report", "state"
    )
    assert code == 1 and "amplitudes" in err
    code, _, err = run_cli(capsys, "qubit", "--init", "0", "--gate", "Y")
    assert code == 1 and "unknown gate" in err


def test_entangle_flag_conflicts(capsys):
    code, _, err = run_cli(capsys, "entangle")
    assert code == 1 and "give" in err
    code, _, err = run_cli(
        capsys, "entangle", "--state", "bell", "--a", "|0>"
    )
    assert code == 1
    code, _, err = run_cli(capsys, "entangle", "--state", "|0>")
    assert code == 1 and "two-qubit" in err


# --- exit codes and determinism ------------------------------------------------------

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fuzzy", "union"])  # missing required --a
    assert exc.value.code == 2


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "gaussian:mu=0,sigma=1",
        "--interval",
        "1,-1",
    )
    assert code == 1
    assert err.startswith("error:")
    assert "\n" == err[-1] and err.count("\n") == 1


def test_duplicate_spec_keys_exit_1(capsys):
    code, out, err = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "gaussian:mu=1, mu=2",
        "--interval",
        "-1,1",
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "duplicate key 'mu'" in err
    assert err.count("\n") == 1


def test_lang_table_bad_grade_exit_1(capsys, tmp_path):
    path = tmp_path / "lang.txt"
    for grade in ("1/0", "abc"):
        path.write_text(f"ab,{grade}\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "lang", "grade", "--word", "ab", "--language", f"table:path={path}"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "lang.txt:1: cannot parse grade" in err
        assert err.count("\n") == 1


def test_oversized_counts_exit_1_before_any_output(capsys, tmp_path):
    sweep_path = tmp_path / "sweep.csv"
    runs = (
        ("localize", "--wavefunction", "gaussian:mu=0,sigma=1",
         "--interval", "-1,1", "--grid", "1000000000000"),
        ("localize", "--wavefunction", "box:n=1,L=1",
         "--interval", "0.1,0.9", "--grid", "1000000000000"),
        ("localize", "--wavefunction", "gaussian:mu=0,sigma=1", "--interval", "-1,1",
         "--grid", "501", "--csv", str(sweep_path), "--sweep-steps", "1000000000000"),
        ("qubit", "--init", "0", "--gate", "H", "--report", "sample",
         "--draws", "1000000000000"),
    )
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert not sweep_path.exists()


def test_unknown_spec_kinds_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "localize",
        "--wavefunction",
        "fourier:k=1",
        "--interval",
        "-1,1",
    )
    assert code == 1 and "unknown spec kind" in err


def test_repeated_invocations_are_byte_identical():
    argv = [
        sys.executable,
        "-m",
        "vagueq",
        "qubit",
        "--init",
        "0",
        "--gate",
        "H",
        "--report",
        "memberships",
    ]
    runs = [
        subprocess.run(argv, capture_output=True, timeout=60) for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode().splitlines()[0] == "mu0 = 0.500000000"
