import dataclasses
import math

import numpy as np
import pytest

from vagueq import (
    GridFunction,
    LocalizationReport,
    WavefunctionSpec,
    localization_sweep,
    localize,
    realize_density,
)
from vagueq.localize import MAX_GRID_POINTS, MAX_SWEEP_STEPS

PEAK_STANDARD_NORMAL = 0.3989422804014327  # 1 / sqrt(2 pi)
MASS_MINUS1_TO_1 = 0.6826894921370859  # erf(1 / sqrt(2))
EXP_MINUS_2 = 0.1353352832366127  # exp(-2), density ratio at x = 2


# --- realizing densities --------------------------------------------------------

def test_gaussian_density_peak_value():
    density = realize_density(WavefunctionSpec.gaussian(0.0, 1.0))
    assert abs(density.value_at(0.0) - PEAK_STANDARD_NORMAL) <= 1e-6
    assert density.x_min == -8.0 and density.x_max == 8.0
    assert density.n == 10001


def test_gaussian_domain_override():
    density = realize_density(
        WavefunctionSpec.gaussian(5.0, 2.0, domain=(0.0, 10.0), grid_points=501)
    )
    assert density.x_min == 0.0 and density.x_max == 10.0
    assert density.n == 501


def test_box_density_values_at_nodes():
    density = realize_density(WavefunctionSpec.box_eigenstate(1, 1.0))
    # midpoint antinode: (2/1) sin^2(pi/2) lands exactly on a node
    assert density.value_at(0.5) == 2.0
    assert density.value_at(0.0) == 0.0
    # the right wall is sin(pi) in floating point, tiny but not zero
    assert density.value_at(1.0) <= 1e-12


def test_box_densities_are_normalized():
    for level, length in ((1, 1.0), (3, 1.0), (2, 5.0), (50, 0.5)):
        density = realize_density(WavefunctionSpec.box_eigenstate(level, length))
        norm = density.integral_over(density.full_span())
        assert abs(norm - 1.0) <= 1e-6


def test_samples_pass_through_untouched():
    g = GridFunction(0.0, 1.0, [0.1, 0.9, 0.4])
    assert realize_density(WavefunctionSpec.from_samples(g)) is g


def test_spec_validation():
    with pytest.raises(ValueError, match="sigma"):
        WavefunctionSpec.gaussian(0.0, 0.0)
    with pytest.raises(ValueError, match="grid_points"):
        WavefunctionSpec.gaussian(0.0, 1.0, grid_points=51)
    with pytest.raises(ValueError, match="level"):
        WavefunctionSpec.box_eigenstate(0, 1.0)
    with pytest.raises(ValueError, match="level"):
        WavefunctionSpec.box_eigenstate(51, 1.0)
    with pytest.raises(ValueError, match="length"):
        WavefunctionSpec.box_eigenstate(1, -2.0)
    with pytest.raises(ValueError, match="domain"):
        WavefunctionSpec.gaussian(0.0, 1.0, domain=(2.0, 1.0))
    with pytest.raises(ValueError, match="GridFunction"):
        WavefunctionSpec.from_samples(None)
    # the caps are checked before any grid is allocated
    with pytest.raises(ValueError, match="grid_points"):
        WavefunctionSpec.gaussian(0.0, 1.0, grid_points=MAX_GRID_POINTS + 1)
    with pytest.raises(ValueError, match="grid_points"):
        WavefunctionSpec.box_eigenstate(1, 1.0, grid_points=10**12)


def test_each_wavefunction_type_holds_only_its_own_fields():
    g = GridFunction(0.0, 1.0, [0.1, 0.9, 0.4])
    shapes = {
        WavefunctionSpec.gaussian(0.0, 1.0): ("mu", "sigma", "domain", "grid_points"),
        WavefunctionSpec.box_eigenstate(2, 1.0): ("level", "length", "grid_points"),
        WavefunctionSpec.from_samples(g): ("samples",),
    }
    for w, names in shapes.items():
        assert isinstance(w, WavefunctionSpec)
        assert tuple(f.name for f in dataclasses.fields(w)) == names


# --- the flagship numbers ---------------------------------------------------------

def test_central_interval_probability_and_possibility():
    report = localize(WavefunctionSpec.gaussian(0.0, 1.0), -1.0, 1.0)
    assert abs(report.probability - MASS_MINUS1_TO_1) <= 1e-4
    # the mode x=0 lies inside, so the interval is fully plausible
    assert abs(report.possibility - 1.0) <= 1e-9
    assert abs(report.possibility_sugeno - report.possibility) <= 1e-9
    assert abs(report.density_norm - 1.0) <= 1e-6


def test_tail_interval_has_low_probability_but_definite_possibility():
    report = localize(WavefunctionSpec.gaussian(0.0, 1.0), 2.0, 3.0)
    # sup of exp(-x^2/2) over [2, 3] sits at the inner edge x = 2
    assert abs(report.possibility - EXP_MINUS_2) <= 1e-9
    assert report.probability < 0.03
    assert abs(report.possibility_sugeno - report.possibility) <= report.grid_tolerance


def test_probability_and_possibility_rank_intervals_differently():
    # a narrow window at the peak vs a wide window in the tail: the tail
    # window holds more mass, the peak window more plausibility
    w = WavefunctionSpec.gaussian(0.0, 1.0)
    at_peak = localize(w, -0.05, 0.05)
    in_tail = localize(w, 1.5, 7.0)
    assert at_peak.probability < in_tail.probability
    assert at_peak.possibility > in_tail.possibility


def test_time_is_recorded_but_inert():
    w = WavefunctionSpec.gaussian(0.0, 1.0)
    r0 = localize(w, -1.0, 1.0, time=0.0)
    r7 = localize(w, -1.0, 1.0, time=7.5)
    assert r7.time == 7.5
    assert r0.probability == r7.probability
    assert r0.possibility == r7.possibility


def test_localize_argument_errors():
    w = WavefunctionSpec.gaussian(0.0, 1.0)
    with pytest.raises(ValueError, match="a < b"):
        localize(w, 1.0, -1.0)
    with pytest.raises(ValueError, match="domain"):
        localize(w, -9.0, 0.0)


# --- report invariants -------------------------------------------------------------

def test_whole_domain_report():
    report = localize(WavefunctionSpec.gaussian(0.0, 1.0), -8.0, 8.0)
    assert abs(report.probability - report.density_norm) <= 1e-12
    assert report.possibility == 1.0


def test_monotone_in_the_interval():
    w = WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001)
    rng = np.random.default_rng(17)
    for _ in range(50):
        bounds = np.sort(rng.uniform(-8.0, 8.0, size=4))
        if bounds[1] == bounds[2]:
            continue
        inner = localize(w, bounds[1], bounds[2])
        outer = localize(w, bounds[0], bounds[3])
        assert inner.probability <= outer.probability + 1e-12
        assert inner.possibility <= outer.possibility + 1e-12


def test_sugeno_agrees_with_sup_on_random_intervals():
    w = WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001)
    rng = np.random.default_rng(18)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-8.0, 8.0, size=2))
        if a == b:
            continue
        report = localize(w, a, b)
        assert abs(report.possibility_sugeno - report.possibility) <= report.grid_tolerance


def test_report_validation_guards():
    ok = dict(
        a=0.0,
        b=1.0,
        time=0.0,
        probability=0.5,
        possibility=0.8,
        possibility_sugeno=0.8,
        density_norm=1.0,
        grid_tolerance=1e-3,
    )
    LocalizationReport(**ok)
    with pytest.raises(ValueError, match="possibility"):
        LocalizationReport(**{**ok, "possibility": 1.2})
    with pytest.raises(ValueError, match="probability"):
        LocalizationReport(**{**ok, "probability": 1.5})
    with pytest.raises(ValueError, match="disagree"):
        LocalizationReport(**{**ok, "possibility_sugeno": 0.9})


def test_report_lines_format():
    report = localize(WavefunctionSpec.gaussian(0.0, 1.0), -1.0, 1.0)
    lines = report.lines()
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


# --- sweeps -------------------------------------------------------------------------

def test_sweep_rows_are_cumulative_and_monotone():
    w = WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001)
    rows = localization_sweep(w, -2.0, 2.0, steps=40)
    assert len(rows) == 40
    assert all(row[0] == -2.0 for row in rows)
    assert rows[-1][1] == 2.0
    probs = [row[2] for row in rows]
    posss = [row[3] for row in rows]
    assert all(p1 <= p2 + 1e-12 for p1, p2 in zip(probs, probs[1:]))
    assert all(q1 <= q2 + 1e-12 for q1, q2 in zip(posss, posss[1:]))
    # the sweep ends at the full-window numbers
    final = localize(w, -2.0, 2.0)
    assert abs(probs[-1] - final.probability) <= 1e-12
    assert abs(posss[-1] - final.possibility) <= 1e-12


def test_sweep_argument_errors():
    w = WavefunctionSpec.gaussian(0.0, 1.0, grid_points=501)
    with pytest.raises(ValueError, match="steps"):
        localization_sweep(w, -1.0, 1.0, steps=0)
    with pytest.raises(ValueError, match="a < b"):
        localization_sweep(w, 1.0, 1.0)
    with pytest.raises(ValueError, match="domain"):
        localization_sweep(w, -9.0, 1.0)
    with pytest.raises(ValueError, match="steps"):
        localization_sweep(w, -1.0, 1.0, steps=MAX_SWEEP_STEPS + 1)
