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
from vagueq import cli
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


def test_localize_report_lines_format(capsys):
    code, out, err = run_cli(
        capsys, "localize", "--wavefunction", "gaussian:mu=0,sigma=1", "--interval", "-1,1"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "a = -1.000000000"
    assert lines[1] == "b = 1.000000000"
    assert lines[2] == "time = 0.000000000"
    assert any(line.startswith("probability = 0.68268") for line in lines)
    assert "possibility = 1.000000000" in lines
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == [
        "a",
        "b",
        "time",
        "probability",
        "possibility",
        "possibility_sugeno",
        "density_norm",
        "grid_tolerance",
    ]


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


@pytest.mark.parametrize("flag, value", [("--b", "missing.txt"), ("--tnorm", "product")],
                         ids=["b", "tnorm"])
def test_fuzzy_complement_refuses_a_flag_of_union_and_intersect(capsys, tmp_path, flag, value):
    a_path = tmp_path / "a.txt"
    write_fuzzy_set(FiniteFuzzySet(("x",), [0.3]), a_path)
    code, out, err = run_cli(capsys, "fuzzy", "complement", "--a", str(a_path), flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} applies only to fuzzy union and intersect\n"


# --- measure subcommand -----------------------------------------------------------

def test_measure_eval_possibilistic_finite(capsys, tmp_path, pi_finite):
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
    # a failed call prints no result line, only its error
    code, out, err = run_cli(
        capsys, "measure", "eval", "--measure", f"possibilistic:finite={pi_finite}",
        "--subset", "x2|x3", "--csv", str(tmp_path / "pi.csv"),
    )
    assert code == 1 and out == ""
    assert err == "error: --csv needs a measure with a grid payload\n"


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


def test_measure_check_tol_reaches_both_checks(capsys, tmp_path, normal_csv):
    xs = np.linspace(-8.0, 8.0, 2001)
    pi_path = tmp_path / "pi.csv"
    write_grid_csv(GridFunction(-8.0, 8.0, np.exp(-0.5 * xs * xs)), pi_path)
    for measure, check in ((f"possibilistic:grid={pi_path}", "maxitivity"),
                           (f"additive:density={normal_csv}", "additivity")):
        argv = ("measure", "check", "--measure", measure, "--check", check,
                "--parts", "-2,-1;0,3")
        # unset, each check keeps its own tolerance; a negative one holds for nothing
        for tol, holds in (((), "true"), (("--tol", "1e-6"), "true"), (("--tol", "-1"), "false")):
            code, out, err = run_cli(capsys, *argv, *tol)
            assert (code, err) == (0, "")
            assert out_lines(out)["holds"] == holds, (check, tol)


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


def test_measure_check_additivity_is_not_quadratic_in_the_parts(normal_csv):
    # 6000 abutting parts: a pairwise overlap test took about 20 s here
    edges = [f"{k / 6000:.6f}" for k in range(6001)]
    parts = ";".join(f"{lo},{hi}" for lo, hi in zip(edges, edges[1:]))
    run = subprocess.run(
        [sys.executable, "-m", "vagueq", "measure", "check",
         "--measure", f"additive:density={normal_csv}", "--check", "additivity",
         "--parts", parts],
        capture_output=True, text=True, timeout=5,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert out_lines(run.stdout)["holds"] == "true"


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


def test_integrate_sugeno_finite(capsys, tmp_path, f_finite, pi_finite):
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
    code, out, err = run_cli(
        capsys, "integrate", "sugeno", "--function", f"finite:{f_finite}",
        "--measure", f"possibilistic:finite={pi_finite}", "--subset", "x1", "--csv", str(tmp_path / "f.csv"),
    )
    assert code == 1 and err == "error: --csv needs a grid function\n"
    assert out == ""


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
    # both lines are yielded before --csv meets a directory: none is printed
    code, out, err = run_cli(
        capsys, "integrate", "sugeno", "--function", f"grid:{path}",
        "--measure", f"possibilistic:grid={path}", "--interval", "-1,1", "--csv", str(tmp_path),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and str(tmp_path) in err and err.count("\n") == 1


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


def test_localize_density_dump_at_a_large_mean_reads_back(capsys, tmp_path):
    # one ulp of x exceeds a billionth of a step here
    dump = tmp_path / "d.csv"
    window = ("--interval", "100,100.0001")
    code, first, err = run_cli(capsys, "localize", "--wavefunction",
                               "gaussian:mu=100,sigma=1e-4", *window, "--dump-density", str(dump))
    assert (code, err) == (0, "")
    code, again, err = run_cli(capsys, "localize", "--wavefunction", f"samples:path={dump}", *window)
    assert (code, err) == (0, "")
    assert again == first


def test_localize_sweep_steps_finer_than_the_floats_exit_1(capsys, tmp_path):
    sweep_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys, "localize", "--wavefunction", "gaussian:mu=0,sigma=1",
        "--interval", "1,1.0000000000000002", "--csv", str(sweep_path), "--sweep-steps", "7",
    )
    assert (code, out) == (1, "")
    assert err == "error: 7 sweep steps are finer than the floats in [1.0, 1.0000000000000002)\n"
    assert not sweep_path.exists()


def test_localize_sweep_steps_without_csv_exit_1(capsys):
    for steps in ("200", "0"):
        code, out, err = run_cli(
            capsys, "localize", "--wavefunction", "gaussian:mu=0,sigma=1",
            "--interval", "-1,1", "--sweep-steps", steps,
        )
        assert (code, out) == (1, "")
        assert err == "error: --sweep-steps applies only with --csv\n"


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
    code, out, err = run_cli(capsys, "qubit", "--init", "0", "--gate", "u:1,0,0,0,0,1")
    assert code == 1 and out == ""
    assert err == "error: u: gate needs 8 numbers (re,im per entry, row-major)\n"


@pytest.mark.parametrize("gate", ["u:1,0,0,0,0,0,1,x", "u:"])
def test_qubit_bad_float_in_a_u_gate_names_the_gate(capsys, gate):
    code, out, err = run_cli(capsys, "qubit", "--init", "0", "--gate", gate)
    assert code == 1 and out == ""
    assert err == f"error: cannot parse gate {gate!r}\n"


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
    # argmax draws nothing, so it never reads the variable
    code, out, _ = run_cli(capsys, "qubit", "--fuzzy", "0.5,0.5", "--report", "defuzz")
    assert code == 0
    assert out_lines(out)["outcome"] == "0"


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


@pytest.mark.parametrize("argv, flag, where", [
    (("--report", "memberships", "--draws", "5", "--method", "born_sample", "--seed", "3"),
     "--method", "with --report defuzz"),
    (("--report", "sample", "--method", "argmax"), "--method", "with --report defuzz"),
    (("--report", "state", "--draws", "0"), "--draws", "with --report sample"),
    (("--report", "defuzz", "--draws", "5"), "--draws", "with --report sample"),
    (("--report", "defuzz", "--seed", "3"), "--seed",
     "when a draw happens: --report sample, or defuzz with --method born_sample"),
    (("--seed", "3"), "--seed",
     "when a draw happens: --report sample, or defuzz with --method born_sample"),
], ids=["method-memberships", "method-sample", "draws-state", "draws-defuzz", "seed-argmax",
        "seed-memberships"])
def test_qubit_refuses_a_flag_its_report_does_not_read(capsys, argv, flag, where):
    code, out, err = run_cli(capsys, "qubit", "--init", "0", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} applies only {where}\n"


def test_qubit_flag_defaults_apply_on_their_paths(capsys):
    code, out, _ = run_cli(capsys, "qubit", "--fuzzy", "0.5,0.5", "--report", "sample")
    assert code == 0 and out_lines(out)["draws"] == "1"
    code, out, _ = run_cli(capsys, "qubit", "--fuzzy", "0.2,0.6", "--report", "defuzz")
    assert code == 0 and out_lines(out)["outcome"] == "1"  # argmax


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

def test_usage_errors_exit_2(capsys):
    f, m = "finite:f.txt", "table:path=t.txt"
    lebesgue = ("integrate", "lebesgue", "--density", "d.csv", "--interval", "-1,1")
    sugeno = ("integrate", "sugeno", "--function", f, "--measure", m, "--subset", "x1")
    for argv in (
        ("no-such-command",),
        ("fuzzy", "union"),  # missing required --a
        # an integrate method requires its own flags and takes no other,
        # and its flags follow the method word
        lebesgue[:4], lebesgue[:2] + lebesgue[4:], sugeno[:4] + sugeno[6:], sugeno[:2] + sugeno[4:],
        lebesgue + ("--function", f), lebesgue + ("--measure", m), lebesgue + ("--subset", "x1"),
        sugeno + ("--density", "d.csv"),
        ("integrate", "--density", "d.csv", "lebesgue", "--interval", "-1,1"),
        ("integrate", "--function", f, "sugeno", "--measure", m, "--subset", "x1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_a_flag_given_an_empty_value_is_read(capsys, normal_csv, pi_finite):
    # an empty value is a value: the flag is read, and refused as its reader
    # refuses the empty string
    box = ("localize", "--wavefunction", "box:n=1,L=1", "--interval", "0,1", "--grid", "101")
    gaussian = ("localize", "--wavefunction", "gaussian", "--interval", "0,1", "--grid", "101")
    no_file = "error: [Errno 2] No such file or directory: ''\n"
    for argv, want in (
        (box + ("--csv=",), no_file),
        (box + ("--dump-density=",), no_file),
        (gaussian + ("--domain=",), "error: expected 'a,b', got ''\n"),
        (box + ("--domain=",), "error: --domain applies only to gaussian wavefunctions\n"),
        (("fuzzy", "complement", "--a", pi_finite, "--out="), no_file),
        (("measure", "eval", "--measure", f"additive:density={normal_csv}",
          "--interval", "-1,1", "--csv="), no_file),
        (("integrate", "lebesgue", "--density", normal_csv, "--interval", "-1,1", "--csv="),
         no_file),
        (("qubit", "--init=", "--report", "state"), "error: unknown state literal ''\n"),
        (("entangle", "--state", "bell", "--a="),
         "error: give either --state or the --a/--b pair\n"),
        (("entangle", "--a=", "--b", "0"), "error: unknown state literal ''\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", want), argv


def test_handlers_run_with_the_callers_stdout(capsys, monkeypatch):
    # main collects a handler's lines and writes them itself, so it never
    # rebinds sys.stdout around the handler
    seen = []
    original = cli.zeros_then_ones_language
    monkeypatch.setattr(
        cli, "zeros_then_ones_language", lambda: seen.append(sys.stdout) or original()
    )
    before = sys.stdout
    code, out, err = run_cli(capsys, "lang", "grade", "--word", "00111")
    assert (code, out, err) == (0, "grade = 0.666666667\n", "")
    assert len(seen) == 1 and seen[0] is before


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


def test_bad_input_lines_exit_1_naming_path_and_line(capsys, tmp_path):
    files = {
        "nanx.csv": "x,value\n0,1\nnan,1\n2,1\n",
        "grades.txt": "a,1\nb,nan\n",
        "labels.txt": "a,1\nb,0.5\na,0.2\n",
        "table.txt": "{},0\na,0.5\nb,0.5\nb|a,1\na|b,1\n",
        "range.txt": "x1,0.5\nx2,1.5\n",
        "negative.txt": "{},0\na,-0.5\nb,0.5\na|b,1\n",
        "words.txt": "ab,0.5\nzz,0.1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    runs = (
        (("integrate", "lebesgue", "--density", str(tmp_path / "nanx.csv"),
          "--interval", "0,1"), "nanx.csv:3: cannot parse x 'nan'"),
        (("fuzzy", "complement", "--a", str(tmp_path / "grades.txt")),
         "grades.txt:2: cannot parse grade 'nan'"),
        (("fuzzy", "complement", "--a", str(tmp_path / "labels.txt")),
         "labels.txt:3: duplicate label 'a'"),
        (("measure", "eval", "--measure", f"table:path={tmp_path / 'table.txt'}",
          "--subset", "a"), "table.txt:5: duplicate subset 'a|b'"),
        (("fuzzy", "complement", "--a", str(tmp_path / "range.txt")),
         "range.txt:2: grade 1.5 lies outside [0, 1]"),
        (("measure", "eval", "--measure", f"table:path={tmp_path / 'negative.txt'}",
          "--subset", "a"), "negative.txt:2: table value for ['a'] must be >= 0"),
        (("lang", "grade", "--word", "ab", "--language",
          f"table:path={tmp_path / 'words.txt'},alphabet=ab"),
         "words.txt:2: word 'zz': symbol 'z' at position 0 is not in the alphabet 'ab'"),
        # an empty alphabet is refused by the alphabet's own rule, before any line
        (("lang", "grade", "--word", "01", "--language",
          f"table:path={tmp_path / 'words.txt'},alphabet="), "error: alphabet must be non-empty"),
    )
    for argv, message in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and message in err, (argv, err)
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


@pytest.mark.parametrize("spec, message", [
    ("gaussian:mu", "expected key=value, got 'mu'"),
    ("gaussian:mu=1,k=2", "unexpected spec key 'k'"),
])
def test_malformed_spec_items_exit_1(capsys, spec, message):
    code, out, err = run_cli(
        capsys, "localize", "--wavefunction", spec, "--interval", "-1,1"
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


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
