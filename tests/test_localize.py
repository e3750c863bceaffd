import collections
import dataclasses
import importlib
import math
import sys

import numpy as np
import pytest

from vagueq import (
    GridFunction,
    IntervalSet,
    LocalizationReport,
    MeasureSpec,
    WavefunctionSpec,
    localization_sweep,
    localize,
    realize_density,
    sugeno_integral,
)
from vagueq.integrals import grid_tolerance
from vagueq.localize import MAX_GRID_POINTS, MAX_SWEEP_STEPS, _density_on_window
from vagueq.measures import measure_of

from oracles import (
    box_density_oracle,
    gaussian_density_oracle,
    localization_sweep_accumulate,
    localization_sweep_loop,
)

PEAK_STANDARD_NORMAL = 0.3989422804014327  # 1 / sqrt(2 pi)
MASS_MINUS1_TO_1 = 0.6826894921370859  # erf(1 / sqrt(2))
EXP_MINUS_2 = 0.1353352832366127  # exp(-2), density ratio at x = 2


# --- realizing densities --------------------------------------------------------

def test_gaussian_density_peak_value():
    density = realize_density(WavefunctionSpec.gaussian(0.0, 1.0))
    assert abs(density.value_at(0.0) - PEAK_STANDARD_NORMAL) <= 1e-6
    assert density.x_min == -8.0 and density.x_max == 8.0
    assert density.samples.size == 10001


def test_gaussian_domain_override():
    density = realize_density(
        WavefunctionSpec.gaussian(5.0, 2.0, domain=(0.0, 10.0), grid_points=501)
    )
    assert density.x_min == 0.0 and density.x_max == 10.0
    assert density.samples.size == 501


def test_realizing_a_density_lays_out_its_grid_once(monkeypatch):
    # the samples are taken at the grid's shared nodes, so a fresh grid runs
    # np.linspace once, not once for the samples and again for the nodes
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *args, **kw: calls.append(args) or linspace(*args, **kw))
    for w in (
        WavefunctionSpec.gaussian(0.123456789, 0.987654321, grid_points=1234),
        WavefunctionSpec.box_eigenstate(3, 2.718281828, grid_points=1235),
    ):
        calls.clear()
        density = realize_density(w)
        assert len(calls) == 1, (w, calls)
        assert density.samples.size == calls[0][2]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_densities_match_their_one_expression_forms_bit_for_bit():
    rng = np.random.default_rng(21)
    gaussians = [
        WavefunctionSpec.gaussian(float(rng.normal() * 10.0), float(10.0 ** rng.uniform(-3, 2)),
                                  grid_points=int(rng.integers(101, 30000)))
        for _ in range(20)
    ]
    # explicit domains, the wide ones so far out that z * z overflows in the
    # tails; mu on a node, so the peak is sampled
    for domain in ((-3.0, 5.0), (-1e160, 1e160), (-1e200, 3e200)):
        mu = float(np.linspace(*domain, 30001)[7499])
        gaussians.append(WavefunctionSpec.gaussian(mu, 1e-3, domain=domain, grid_points=30001))
    # a node 0.0 next to a tiny mu: z * z is subnormal or rounds to zero
    for mu in (1e-160, 3e-162, -7e-155, 1e-170):
        gaussians.append(WavefunctionSpec.gaussian(mu, 1.0, domain=(-1.0, 1.0), grid_points=101))
    for w in gaussians:
        got = realize_density(w).samples
        assert got.tobytes() == gaussian_density_oracle(w).tobytes(), w
        assert got.max() > 0.0, w
    for level in range(1, 51):
        w = WavefunctionSpec.box_eigenstate(level, float(10.0 ** rng.uniform(-3, 3)),
                                            grid_points=int(rng.integers(101, 5000)))
        assert realize_density(w).samples.tobytes() == box_density_oracle(w).tobytes(), w


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


def test_sugeno_equals_sup_bit_for_bit():
    # against its own possibility measure pi, the Sugeno integral of pi over a
    # window is sup min(pi, pi) = sup pi: the same float as the possibility
    rng = np.random.default_rng(19)
    specs = [
        WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001),
        WavefunctionSpec.gaussian(0.3, 0.2, grid_points=10001),
        WavefunctionSpec.box_eigenstate(1, 2.0, grid_points=2001),
        WavefunctionSpec.box_eigenstate(3, 1.0, grid_points=4001),
    ]
    for w in specs:
        lo, hi = realize_density(w).x_min, realize_density(w).x_max
        for _ in range(25):
            a, b = np.sort(rng.uniform(lo, hi, size=2))
            if a == b:
                continue
            report = localize(w, a, b)
            assert report.possibility_sugeno == report.possibility, (w, a, b)


def test_reports_have_slots_and_stay_frozen():
    report = localize(WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001), -1.0, 1.0)
    assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.a = 0.0
    assert report == localize(WavefunctionSpec.gaussian(0.0, 1.0, grid_points=2001), -1.0, 1.0)


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


def _sweep_cases():
    """Gaussian, box and sampled densities, each with a window over the
    whole domain, one from node to node and one between nodes."""
    rng = np.random.default_rng(2007)
    samples = np.round(rng.random(301) * 4.0) / 4.0  # plateaus, zeros included
    samples[rng.random(301) < 0.2] = -0.0
    samples[150] = 1.0
    for w in (
        WavefunctionSpec.gaussian(0.3, 0.7, grid_points=2001),
        WavefunctionSpec.box_eigenstate(3, 2.0, grid_points=1001),
        WavefunctionSpec.from_samples(GridFunction(-1.0, 2.0, samples)),
    ):
        nodes = realize_density(w).nodes
        lo, hi = float(nodes[0]), float(nodes[-1])
        yield w, lo, hi
        yield w, float(nodes[3]), float(nodes[-40])
        yield w, lo + 0.3 * (hi - lo), lo + 0.61 * (hi - lo)


def test_sweep_rows_equal_the_per_window_loop():
    for w, a, b in _sweep_cases():
        for steps in (1, 7, 777):
            assert localization_sweep(w, a, b, steps) == localization_sweep_loop(w, a, b, steps)


def test_sweep_rows_equal_the_running_sup_over_a_copy_of_pi():
    cases = list(_sweep_cases())
    # nodes at multiples of 0.25: ends on every node, on every other node
    # (more steps than nodes inside, so empty runs), and a window inside one
    # cell; falling, and rising so that the nodes past b top those before it
    quarter = WavefunctionSpec.from_samples(GridFunction(0.0, 8.0, np.linspace(1.0, 0.0, 33) ** 2))
    rising = WavefunctionSpec.from_samples(GridFunction(0.0, 8.0, np.linspace(0.0, 1.0, 33) ** 2))
    for w in (quarter, rising):
        cases += [(w, 0.0, 8.0), (w, 1.0, 3.0), (w, 1.1, 1.2)]
    for w, a, b in cases:
        for steps in (1, 2, 7, 32, 64, 777, 5000):
            assert localization_sweep(w, a, b, steps) == localization_sweep_accumulate(w, a, b, steps)
    xs = [row[1] for row in localization_sweep(quarter, 0.0, 8.0, 64)]
    assert set(xs[1::2]) == set(np.linspace(0.25, 8.0, 32).tolist())


def test_sweep_at_the_step_cap_equals_the_per_window_reads():
    # the whole loop at the cap takes seconds; every 97th window and the
    # last ones are measured one by one as the loop measures them
    for w, a, b in _sweep_cases():
        rows = localization_sweep(w, a, b, MAX_SWEEP_STEPS)
        _, _, density, _, pi_measure = _density_on_window(w, a, b)
        assert [row[1] for row in rows] == np.linspace(a, b, MAX_SWEEP_STEPS + 1)[1:].tolist()
        for i in [*range(0, MAX_SWEEP_STEPS, 97), MAX_SWEEP_STEPS - 2, MAX_SWEEP_STEPS - 1]:
            window = IntervalSet.interval(a, rows[i][1])
            want = (a, rows[i][1], density.integral_over(window), measure_of(pi_measure, window))
            assert rows[i] == want, i


def test_sweep_steps_finer_than_the_floats_fail_as_the_loop_does():
    w = WavefunctionSpec.gaussian(1.0, 1.0, grid_points=101)
    b = float(np.nextafter(1.0, 2.0))
    # the sweep names its step count and the window, the loop its first window
    finer = r"7 sweep steps are finer than the floats in \[1\.0, 1\.0000000000000002\)"
    with pytest.raises(ValueError, match=finer):
        localization_sweep(w, 1.0, b, 7)
    with pytest.raises(ValueError, match=r"interval \[1\.0, 1\.0\) is empty"):
        localization_sweep_loop(w, 1.0, b, 7)


def test_sweep_makes_no_per_window_query(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for name in ("integral_over", "max_over"):
        monkeypatch.setattr(GridFunction, name, counted(name, getattr(GridFunction, name)))
    # the package attribute vagueq.localize is the function, not the module
    module = importlib.import_module("vagueq.localize")
    monkeypatch.setattr(module, "measure_of", counted("measure_of", module.measure_of))
    w = WavefunctionSpec.gaussian(0.0, 1.0, grid_points=501)
    localization_sweep(w, -1.0, 1.0, steps=5)
    few = dict(calls)
    calls.clear()
    localization_sweep(w, -1.0, 1.0, steps=500)
    assert dict(calls) == few


# --- pi -------------------------------------------------------------------------

def test_pi_is_the_checked_quotient_byte_for_byte():
    rng = np.random.default_rng(2023)
    zeros = rng.random(501)
    zeros[rng.random(501) < 0.3] = -0.0
    zeros[::7] = 0.0
    densities = [
        realize_density(WavefunctionSpec.gaussian(0.3, 0.7, grid_points=2001)),
        realize_density(WavefunctionSpec.gaussian(0.0, 1.0, domain=(-40.0, 40.0), grid_points=3001)),
        realize_density(WavefunctionSpec.box_eigenstate(3, 2.0, grid_points=1001)),
        GridFunction(-1.0, 2.0, zeros),
        GridFunction(0.0, 1.0, rng.random(301) * 1e-310),  # a subnormal top
        GridFunction(0.0, 1.0, [0.0, 5e-324, -0.0]),
    ]
    for density in densities:
        pi = density.scaled_by_max()
        want = GridFunction(density.x_min, density.x_max, density.samples / density.samples.max())
        assert pi.samples.tobytes() == want.samples.tobytes()
        assert repr((pi.x_min, pi.x_max, pi.spacing)) == repr((want.x_min, want.x_max, want.spacing))
        assert pi.nodes is density.nodes and not pi.samples.flags.writeable
        assert pi._prefix.tobytes() == want._prefix.tobytes()
    with pytest.raises(ValueError, match="^cannot rescale an identically zero function$"):
        GridFunction(0.0, 1.0, [-0.0, 0.0, -0.0]).scaled_by_max()


def test_pi_keeps_the_overflow_refusal():
    # on a span of the largest float, pi's integral rounds past it at 12
    # nodes and not at 11, while the density's is far below
    span = sys.float_info.max
    for n, overflows in ((11, False), (12, True)):
        density = GridFunction(0.0, span, np.full(n, 2.0**-60))
        top = float(density.samples.max())
        if overflows:
            for build in (density.scaled_by_max, lambda: GridFunction(0.0, span, density.samples / top)):
                with pytest.raises(ValueError, match="^the integral of the samples overflows$"):
                    build()
        else:
            want = GridFunction(0.0, span, density.samples / top)
            assert density.scaled_by_max()._prefix.tobytes() == want._prefix.tobytes()


def test_possibility_reads_build_no_prefix():
    density = realize_density(WavefunctionSpec.gaussian(0.0, 1.0, grid_points=1001))
    pi = density.scaled_by_max()
    window = IntervalSet.interval(-1.0, 1.0)
    poss = MeasureSpec.possibilistic(pi)
    measure_of(poss, window)
    sugeno_integral(pi, window, poss)
    grid_tolerance(pi)
    # a sum of nothing is +0.0, read before any prefix
    assert repr(pi.integral_over(IntervalSet())) == "0.0"
    assert "_prefix" not in vars(pi) and "_prefix" not in vars(density)
    density.integral_over(window)
    assert "_prefix" in vars(density)


def test_localize_and_its_sweep_run_one_prefix_pass(monkeypatch):
    passes = []
    prefix = GridFunction.__dict__["_prefix"]
    monkeypatch.setattr(prefix, "func", lambda f, build=prefix.func: passes.append(f) or build(f))
    density = realize_density(WavefunctionSpec.gaussian(0.0, 1.0, grid_points=1001))
    w = WavefunctionSpec.from_samples(density)
    localize(w, -1.0, 1.0)
    localization_sweep(w, -1.0, 1.0, steps=7)
    assert len(passes) == 1 and passes[0] is density
