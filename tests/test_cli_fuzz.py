"""Fuzz the command line over its argv grammar.

Whatever the arguments, ``vagueq`` must exit with 0, 1 or 2, raise
nothing, emit no warning, and write nothing to stderr on success and
exactly one ``error:`` line otherwise.  Counts above the caps appear only
as values to be rejected; no accepted draw allocates more than a few
hundred grid points.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    MeasureSpec,
    write_fuzzy_set,
    write_grid_csv,
    write_table_measure,
)
from vagueq.cli import main
from vagueq.localize import MAX_GRID_POINTS, MAX_SWEEP_STEPS
from vagueq.qubits import MAX_DRAWS

NUMBERS = (
    "0", "-0", "1", "-1", "0.5", "-0.25", "3", "1e-300", "1e300",
    "1e308", "-1e308", "5e-324", "-5e-324", "nan", "inf", "-inf", "abc", "",
)
WINDOWS = ("-1,1", "0.2,0.7", "0,1", "-2,2")
TOO_MANY = ("1000000000000", str(10**30))
GRIDS = ("101", "257", "0", "-1", "100", "x", "1e3", str(MAX_GRID_POINTS + 1)) + TOO_MANY
STEPS = ("1", "7", "0", "-1", "x", str(MAX_SWEEP_STEPS + 1)) + TOO_MANY
DRAWS = ("1", "10", "0", "-1", "x", str(MAX_DRAWS + 1)) + TOO_MANY


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files of every kind, plus empty, missing and directory paths,
    and the paths that outputs may be written to."""
    root = tmp_path_factory.mktemp("fuzz")
    xs = np.linspace(-2.0, 2.0, 101)
    bump = np.exp(-0.5 * xs * xs)
    write_grid_csv(GridFunction(-2.0, 2.0, bump / math.sqrt(2.0 * math.pi)), root / "density.csv")
    write_grid_csv(GridFunction(-2.0, 2.0, bump), root / "pi.csv")
    write_grid_csv(GridFunction(-2.0, 2.0, 1.0 - 0.2 * np.abs(xs)), root / "f.csv")
    labels = ("x1", "x2", "x3")
    write_fuzzy_set(FiniteFuzzySet(labels, [1.0, 0.6, 0.3]), root / "pi.txt")
    write_fuzzy_set(FiniteFuzzySet(labels, [0.2, 0.5, 0.9]), root / "f.txt")
    table = {s: len(s) / 3 for s in itertools.chain(*(
        itertools.combinations(labels, k) for k in range(4)
    ))}
    write_table_measure(MeasureSpec.from_table(labels, table), root / "table.txt")
    (root / "lang.txt").write_text("01,0.5\n0011,1/3\nε,1\n", encoding="utf-8")
    (root / "huge.csv").write_text(
        "x,value\n0.0,1e308\n5.0,1.7e308\n10.0,1e308\n", encoding="utf-8"
    )
    (root / "empty.txt").write_text("", encoding="utf-8")
    (root / "dir").mkdir()
    names = ("density.csv", "pi.csv", "f.csv", "pi.txt", "f.txt", "table.txt",
             "lang.txt", "huge.csv", "empty.txt", "dir", "missing.csv")
    inputs = {name: str(root / name) for name in names}
    outputs = [str(root / "out.csv"), str(root / "dir"), str(root / "no" / "out.csv")]
    return inputs, outputs


def command(head, required, optional):
    """argv for ``head`` with every required and some optional flags."""
    def build(flags):
        argv = list(head)
        for flag, value in flags.items():
            argv += [flag, value]
        return argv

    return st.fixed_dictionaries(required, optional=optional).map(build)


def either(valid, wild):
    """Half the draws from values that pass, so runs get past parsing."""
    return st.one_of(st.sampled_from(valid), wild)


def argv_strategy(inputs, outputs):
    num = st.sampled_from(NUMBERS)
    any_path = st.sampled_from(sorted(inputs.values()))

    def path(*names):
        return either([inputs[n] for n in names], any_path)

    out = st.sampled_from(outputs)
    pair = either(WINDOWS, st.one_of(
        st.tuples(num, num).map(",".join), st.sampled_from(("1", "1,2,3", ""))
    ))
    parts = st.lists(pair, min_size=1, max_size=3).map(";".join)
    subset = st.lists(st.sampled_from(("x1", "x2", "x3", "zz", "")), max_size=3).map("|".join)
    grid_measure = st.one_of(
        path("density.csv").map("additive:density={}".format),
        path("pi.csv").map("possibilistic:grid={}".format),
    )
    finite_measure = st.one_of(
        path("pi.txt").map("possibilistic:finite={}".format),
        path("table.txt").map("table:path={}".format),
    )
    measure = st.one_of(
        grid_measure,
        finite_measure,
        st.sampled_from(("additive", "additive:x=1", "possibilistic:", "bogus:path=a")),
    )
    grid_function = path("f.csv", "density.csv").map("grid:{}".format)
    finite_function = path("f.txt", "pi.txt").map("finite:{}".format)
    function = st.one_of(
        grid_function, finite_function, st.sampled_from(("grid:", "other:x"))
    )
    wavefunction = st.one_of(
        st.tuples(either(("0", "0.5"), num), either(("1", "0.3"), num)).map(
            lambda p: f"gaussian:mu={p[0]},sigma={p[1]}"
        ),
        num.map("gaussian:sigma={}".format),
        st.tuples(
            st.sampled_from(("1", "2", "50", "51", "0", "-3", "x")), either(("1", "2"), num)
        ).map(lambda p: f"box:n={p[0]},L={p[1]}"),
        path("density.csv", "pi.csv").map("samples:path={}".format),
        st.sampled_from(("gaussian", "gaussian:mu", "gaussian:mu=1,mu=2", "gaussian:zz=1",
                         "box:n=1", "fourier:k=1", "")),
    )
    amps = st.lists(num, min_size=1, max_size=9).map(",".join)
    state = either(
        ("0", "1", "|0>", "|1>", "bell", "amp0.6,0,0.8,0", "amp0,0.6,0,0.8,0,0,0,0"),
        st.one_of(st.sampled_from(("amp", "ket")), amps.map("amp{}".format)),
    )
    gate = either(
        ("H", "X", "Z", "u:0,0,1,0,1,0,0,0"),
        st.one_of(
            st.sampled_from(("Y", "u:", "u:0,1,1,0")),
            st.lists(num, min_size=8, max_size=8).map(lambda v: "u:" + ",".join(v)),
        ),
    )
    language = st.one_of(
        st.sampled_from(("builtin", "table", "table:alphabet=01", "other:path=x")),
        path("lang.txt").map("table:path={}".format),
        path("lang.txt").map("table:path={},alphabet=01".format),
    )
    word = st.sampled_from(("", "0", "01", "0011", "00111", "abc", "ε", "-x"))

    commands = (
        command(
            ["fuzzy", "union"], {"--a": path("f.txt", "pi.txt")},
            {"--b": path("f.txt", "pi.txt"),
             "--tnorm": st.sampled_from(("minimum", "product", "lukasiewicz", "x")),
             "--out": out},
        ),
        command(["fuzzy", "complement"], {"--a": path("f.txt")}, {"--out": out}),
        command(
            ["measure", "eval"], {"--measure": measure},
            {"--interval": pair, "--subset": subset, "--csv": out},
        ),
        command(
            ["measure", "eval"], {"--measure": grid_measure, "--interval": pair}, {"--csv": out}
        ),
        command(["measure", "eval"], {"--measure": finite_measure, "--subset": subset}, {}),
        command(
            ["measure", "check"],
            {"--measure": measure, "--check": st.sampled_from(("maxitivity", "additivity")),
             "--parts": parts},
            {"--tol": num},
        ),
        command(
            ["integrate", "lebesgue"], {"--density": path("density.csv"), "--interval": pair},
            {"--csv": out},
        ),
        command(
            ["integrate", "sugeno"], {"--function": function, "--measure": measure},
            {"--interval": pair, "--subset": subset, "--csv": out},
        ),
        command(
            ["integrate", "sugeno"],
            {"--function": grid_function, "--measure": grid_measure, "--interval": pair},
            {"--csv": out},
        ),
        command(
            ["integrate", "sugeno"],
            {"--function": finite_function, "--measure": finite_measure, "--subset": subset},
            {},
        ),
        command(
            ["localize"], {"--wavefunction": wavefunction, "--interval": pair},
            {"--grid": either(("101", "257"), st.sampled_from(GRIDS)), "--domain": pair,
             "--time": num, "--csv": out, "--sweep-steps": either(("7",), st.sampled_from(STEPS)),
             "--dump-density": out},
        ),
        command(
            ["qubit"], {},
            {"--init": state, "--fuzzy": pair, "--gate": gate,
             "--report": st.sampled_from(("state", "memberships", "defuzz", "sample")),
             "--method": st.sampled_from(("argmax", "born_sample")),
             "--draws": either(("10",), st.sampled_from(DRAWS)),
             "--seed": st.sampled_from(("0", "7", "-1", str(2**64), "x"))},
        ),
        command(["entangle"], {}, {"--state": state, "--a": state, "--b": state, "--tol": num}),
        command(["entangle"], {"--state": state}, {"--tol": num}),
        command(["entangle"], {"--a": state, "--b": state}, {"--tol": num}),
        command(["lang", "grade"], {"--word": word}, {"--language": language}),
    )
    tokens = st.lists(
        st.sampled_from(("localize", "qubit", "lang", "grade", "--grid", "--interval",
                         "-1,1", "--", "--bogus", "-h", "H") + NUMBERS),
        max_size=6,
    )
    return st.one_of(*commands, tokens)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@pytest.fixture(scope="module")
def strategy(files):
    return argv_strategy(*files)


@settings(
    max_examples=1000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_argv_keeps_the_cli_contract(strategy, data):
    argv = data.draw(strategy, label="argv")
    code, _, err, caught = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n")


def test_known_overflows_end_in_one_error_line(files):
    inputs, _ = files
    for argv in (
        ["qubit", "--init", "amp1e200,0,0,0"],
        ["entangle", "--state", "amp1e308,0,1e308,0,0,0,0,0"],
        ["localize", "--wavefunction", "gaussian:sigma=1e308", "--interval", "0,1"],
        ["localize", "--wavefunction", "gaussian", "--domain", "-1e308,1e308",
         "--interval", "0,1"],
        ["localize", "--wavefunction", "box:n=1,L=1e-320", "--interval", "0,1e-321"],
        ["qubit", "--gate", "u:1e308,0,0,0,0,0,1e308,0"],
        ["integrate", "lebesgue", "--density", inputs["huge.csv"], "--interval", "0,1"],
    ):
        code, out, err, caught = run(argv)
        assert code == 1 and out == "" and not caught, argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
