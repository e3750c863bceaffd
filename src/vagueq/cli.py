"""Command-line interface.

Each handler yields its results as ``(key, value)`` pairs and runs its
file writes; ``main`` alone writes, the pairs as ``key = value`` lines
once the handler has finished.  CSV dumps go behind ``--csv`` (sweeps) or
``--dump-density`` (re-ingestable samples).  Exit codes: 0 on success, 1
on domain errors, 2 on usage errors; both errors write one ``error:``
line to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .formats import (
    read_fuzzy_set, read_grade_table, read_grid_csv, read_table_measure, write_fuzzy_set,
    write_grid_csv, write_sweep_csv,
)
from .fuzzy import (
    FiniteFuzzySet, GridFunction, TNormKind, fuzzy_complement, fuzzy_intersection, fuzzy_union
)
from .integrals import grid_tolerance, sugeno_integral
from .intervals import IntervalSet
from .language import zeros_then_ones_language
from .localize import (
    DEFAULT_GRID_POINTS, DEFAULT_SWEEP_STEPS, WavefunctionSpec, localize, localization_sweep,
    realize_density,
)
from .measures import (
    AdditiveMeasure, MeasureSpec, check_additivity, check_possibility_union_axiom, measure_of
)
from .qubits import (
    Register,
    amplitude_determinant,
    apply_gates,
    born_compatible,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    parse_state_literal,
    tensor_product,
)

SEED_ENV_VAR = "VAGUEQ_SEED"
# the defaults of flags whose handler applies them, so that a flag given on
# argv is one that is not None
DEFAULT_TNORM = TNormKind.MINIMUM.value
DEFAULT_METHOD = "argmax"
DEFAULT_DRAWS = 1

# flags whose values may start with a minus sign; merged to --flag=value
# before parsing so argparse does not mistake them for options
_NEGATIVE_VALUE_FLAGS = ("--interval", "--domain", "--parts", "--fuzzy", "--time")


def _merge_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NEGATIVE_VALUE_FLAGS and token.startswith("-"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _parse_kv(body: str) -> dict[str, str]:
    kv: dict[str, str] = {}
    if not body:
        return kv
    for item in body.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"expected key=value, got {item!r}")
        if key in kv:
            raise ValueError(f"duplicate key {key!r}")
        kv[key] = value.strip()
    return kv


def _parse_spec(text: str, known: tuple[str, ...]) -> tuple[str, dict[str, str]]:
    head, _, body = text.partition(":")
    head = head.strip()
    if head not in known:
        raise ValueError(f"unknown spec kind {head!r}; expected one of {known}")
    return head, _parse_kv(body)


def _take_keys(kv: dict[str, str], required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in required:
        if key not in kv:
            raise ValueError(f"missing spec key {key!r}")
    for key in kv:
        if key not in required and key not in optional:
            raise ValueError(f"unexpected spec key {key!r}")


def parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def parse_parts(text: str) -> list[IntervalSet]:
    out = []
    for piece in text.split(";"):
        lo, hi = parse_interval(piece)
        out.append(IntervalSet.interval(lo, hi))
    return out


def load_measure(spec: str) -> MeasureSpec:
    head, kv = _parse_spec(spec, ("additive", "possibilistic", "table"))
    if head == "additive":
        _take_keys(kv, ("density",))
        return MeasureSpec.additive(read_grid_csv(kv["density"]))
    if head == "possibilistic":
        if "grid" in kv:
            _take_keys(kv, ("grid",))
            return MeasureSpec.possibilistic(read_grid_csv(kv["grid"]))
        _take_keys(kv, ("finite",))
        return MeasureSpec.possibilistic(read_fuzzy_set(kv["finite"]))
    _take_keys(kv, ("path",))
    return read_table_measure(kv["path"])


def load_function(spec: str) -> FiniteFuzzySet | GridFunction:
    head, _, path = spec.partition(":")
    if head == "grid" and path:
        return read_grid_csv(path)
    if head == "finite" and path:
        return read_fuzzy_set(path)
    raise ValueError(
        f"expected 'grid:PATH' or 'finite:PATH' for a function, got {spec!r}"
    )


def load_wavefunction(spec: str, args) -> WavefunctionSpec:
    head, kv = _parse_spec(spec, ("gaussian", "box", "samples"))
    if head == "gaussian":
        _take_keys(kv, (), ("mu", "sigma"))
        domain = None if args.domain is None else parse_interval(args.domain)
        return WavefunctionSpec.gaussian(
            mu=float(kv.get("mu", "0")),
            sigma=float(kv.get("sigma", "1")),
            domain=domain,
            grid_points=args.grid,
        )
    if args.domain is not None:
        raise ValueError("--domain applies only to gaussian wavefunctions")
    if head == "box":
        _take_keys(kv, ("n", "L"))
        return WavefunctionSpec.box_eigenstate(
            level=int(kv["n"]), length=float(kv["L"]), grid_points=args.grid
        )
    _take_keys(kv, ("path",))
    return WavefunctionSpec.from_samples(read_grid_csv(kv["path"]))


def resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 0


def _applies_only(args, where: str, *flags: str) -> None:
    """Refuse each of ``flags`` given on argv (not None in ``args``) on a path
    that does not read it, naming the flag and ``where`` it applies."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} applies only {where}")


def _event_from_args(args) -> IntervalSet | frozenset:
    if (args.interval is None) == (args.subset is None):
        raise ValueError("give exactly one of --interval or --subset")
    if args.interval is not None:
        return IntervalSet.interval(*parse_interval(args.interval))
    return frozenset(part.strip() for part in args.subset.split("|") if part.strip())


# --- handlers ---------------------------------------------------------------

def _cmd_fuzzy(args):
    if args.op == "complement":
        _applies_only(args, "to fuzzy union and intersect", "--b", "--tnorm")
    a = read_fuzzy_set(args.a)
    if args.op == "complement":
        result = fuzzy_complement(a)
    else:
        if args.b is None:
            raise ValueError(f"fuzzy {args.op} needs --b")
        b = read_fuzzy_set(args.b)
        op = fuzzy_union if args.op == "union" else fuzzy_intersection
        result = op(a, b, TNormKind(args.tnorm or DEFAULT_TNORM))
    yield from result.items()
    if args.out is not None:
        write_fuzzy_set(result, args.out)


def _cmd_measure_eval(args):
    m = load_measure(args.measure)
    event = _event_from_args(args)
    yield "measure", measure_of(m, event)
    payload = getattr(m, "distribution", None)
    if isinstance(m, AdditiveMeasure):
        yield "normalized", m.is_normalized
        payload = m.density
    if args.csv is not None:
        if not isinstance(payload, GridFunction):
            raise ValueError("--csv needs a measure with a grid payload")
        write_grid_csv(payload, args.csv)


def _cmd_measure_check(args):
    m = load_measure(args.measure)
    parts = parse_parts(args.parts)
    check = check_possibility_union_axiom if args.check == "maxitivity" else check_additivity
    # an unset --tol leaves each check its own default
    yield "holds", check(m, parts) if args.tol is None else check(m, parts, tol=args.tol)


def _cmd_lebesgue(args):
    f = read_grid_csv(args.density)
    yield "integral", f.integral_over(IntervalSet.interval(*parse_interval(args.interval)))
    if args.csv is not None:
        write_grid_csv(f, args.csv)


def _cmd_sugeno(args):
    f = load_function(args.function)
    m = load_measure(args.measure)
    event = _event_from_args(args)
    yield "sugeno", sugeno_integral(f, event, m)
    if isinstance(f, GridFunction):
        yield "grid_tolerance", grid_tolerance(f)
        if args.csv is not None:
            write_grid_csv(f, args.csv)
    elif args.csv is not None:
        raise ValueError("--csv needs a grid function")


def _cmd_localize(args):
    if args.csv is None:
        _applies_only(args, "with --csv", "--sweep-steps")
    w = load_wavefunction(args.wavefunction, args)
    a, b = parse_interval(args.interval)
    density = realize_density(w)  # once: the report, sweep and dump share it
    w = WavefunctionSpec.from_samples(density)
    report = localize(w, a, b, time=args.time)
    steps = DEFAULT_SWEEP_STEPS if args.sweep_steps is None else args.sweep_steps
    rows = None if args.csv is None else localization_sweep(w, a, b, steps=steps)
    yield from dataclasses.asdict(report).items()
    if args.dump_density is not None:
        write_grid_csv(density, args.dump_density)
    if rows is not None:
        write_sweep_csv(rows, args.csv)


def _parse_init(text: str) -> Register:
    state = parse_state_literal({"0": "|0>", "1": "|1>"}.get(text.strip(), text))
    if state.qubits != 1:
        raise ValueError("qubit commands need a one-qubit state")
    return state


def _cmd_qubit(args):
    if args.report != "defuzz":
        _applies_only(args, "with --report defuzz", "--method")
    if args.report != "sample":
        _applies_only(args, "with --report sample", "--draws")
    draw = args.report == "sample" or (args.report == "defuzz" and args.method == "born_sample")
    if not draw:
        _applies_only(args, "when a draw happens: --report sample, or defuzz with "
                      "--method born_sample", "--seed")
    if args.fuzzy is not None and args.init is not None:
        raise ValueError("give either --init or --fuzzy, not both")
    if args.fuzzy is not None:
        if args.gate:
            raise ValueError("gates act on amplitudes, not fuzzy states")
        state = None
        fuzzy_state = FiniteFuzzySet(("0", "1"), parse_interval(args.fuzzy))
    else:
        state = apply_gates(_parse_init("0" if args.init is None else args.init), args.gate or [])
        fuzzy_state = fuzzify(state)
    seed = resolve_seed(args.seed) if draw else None

    if args.report == "state":
        if state is None:
            raise ValueError("fuzzy states have no amplitudes to report")
        for label, z in zip(state.labels, state.amplitudes):
            yield f"a{label}_re", z.real
            yield f"a{label}_im", z.imag
    elif args.report == "memberships":
        yield from ((f"mu{label}", grade) for label, grade in fuzzy_state.items())
        yield "born_compatible", born_compatible(fuzzy_state)
    elif args.report == "defuzz":
        yield "outcome", defuzzify(fuzzy_state, method=args.method or DEFAULT_METHOD, seed=seed)
    else:  # sample
        draws = DEFAULT_DRAWS if args.draws is None else args.draws
        outcomes = born_sample_many(fuzzy_state, draws, seed=seed)
        yield "draws", draws
        for i, label in enumerate(fuzzy_state.universe):
            yield f"freq{label}", float((outcomes == i).mean())


def _cmd_entangle(args):
    if args.state is None and (args.a is None or args.b is None):
        raise ValueError("give --state, or both --a and --b")
    if args.state is not None and (args.a is not None or args.b is not None):
        raise ValueError("give either --state or the --a/--b pair")
    if args.state is not None:
        state = parse_state_literal(args.state)
        if state.qubits != 2:
            raise ValueError("entangle needs a two-qubit state")
    else:
        qa = _parse_init(args.a)
        qb = _parse_init(args.b)
        state = tensor_product(qa, qb)
    yield "det", abs(amplitude_determinant(state))
    yield "entangled", is_entangled(state, tol=args.tol)


def _cmd_lang(args):
    spec = args.language
    if spec == "builtin":
        lang = zeros_then_ones_language()
    else:
        head, kv = _parse_spec(spec, ("table",))
        _take_keys(kv, ("path",), ("alphabet",))
        lang = read_grade_table(kv["path"], alphabet=kv.get("alphabet"))
    yield "grade", lang.grade(args.word)


# --- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, exit 2; subcommand parsers inherit it
        self.exit(2, f"error: {message} (see '{self.prog} --help')\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vagueq",
        description="Fuzzy sets, possibility measures, Sugeno integration, "
        "and a toy possibilistic qubit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzzy = sub.add_parser("fuzzy", help="pointwise fuzzy set algebra")
    p_fuzzy.add_argument("op", choices=("union", "intersect", "complement"))
    p_fuzzy.add_argument("--a", required=True, help="fuzzy set file (label,grade)")
    p_fuzzy.add_argument("--b", help="second fuzzy set file (union and intersect)")
    p_fuzzy.add_argument(
        "--tnorm",
        choices=tuple(k.value for k in TNormKind),
        help=f"t-norm/t-conorm pair (union and intersect; default: {DEFAULT_TNORM})",
    )
    p_fuzzy.add_argument("--out", help="write the result as label,grade lines")
    p_fuzzy.set_defaults(handler=_cmd_fuzzy)

    p_meval = sub.add_parser("measure", help="evaluate or check a measure")
    msub = p_meval.add_subparsers(dest="measure_command", required=True)
    p_eval = msub.add_parser("eval", help="measure of one event")
    p_eval.add_argument("--measure", required=True, help="additive:density=F | possibilistic:grid=F | possibilistic:finite=F | table:path=F")
    p_eval.add_argument("--interval", help="half-open interval a,b")
    p_eval.add_argument("--subset", help="finite event, labels joined by |")
    p_eval.add_argument("--csv", help="dump the grid payload as x,value CSV")
    p_eval.set_defaults(handler=_cmd_measure_eval)
    p_check = msub.add_parser("check", help="check a measure axiom on parts")
    p_check.add_argument("--measure", required=True)
    p_check.add_argument("--check", required=True, choices=("maxitivity", "additivity"))
    p_check.add_argument("--parts", required=True, help="intervals a,b;c,d;...")
    p_check.add_argument("--tol", type=float, help="default 1e-12 maxitivity, 1e-9 additivity")
    p_check.set_defaults(handler=_cmd_measure_check)

    p_int = sub.add_parser("integrate", help="Lebesgue or Sugeno integral")
    isub = p_int.add_subparsers(dest="integrate_command", required=True)
    p_leb = isub.add_parser("lebesgue", help="integral of a density over an interval")
    p_leb.add_argument("--density", required=True, help="x,value CSV")
    p_leb.add_argument("--interval", required=True, help="half-open interval a,b")
    p_leb.add_argument("--csv", help="dump the density as x,value CSV")
    p_leb.set_defaults(handler=_cmd_lebesgue)
    p_sug = isub.add_parser("sugeno", help="Sugeno integral against a measure")
    p_sug.add_argument("--function", required=True, help="grid:F.csv or finite:F")
    p_sug.add_argument("--measure", required=True, help="measure spec, as for measure eval")
    p_sug.add_argument("--interval", help="half-open interval a,b")
    p_sug.add_argument("--subset", help="finite event, labels joined by |")
    p_sug.add_argument("--csv", help="dump the grid function as x,value CSV")
    p_sug.set_defaults(handler=_cmd_sugeno)

    p_loc = sub.add_parser(
        "localize", help="probability vs possibility of finding the particle"
    )
    p_loc.add_argument(
        "--wavefunction",
        required=True,
        help="gaussian:mu=0,sigma=1 | box:n=1,L=1 | samples:path=F.csv",
    )
    p_loc.add_argument("--interval", required=True, help="window a,b")
    p_loc.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS, help="grid points")
    p_loc.add_argument("--domain", help="override domain lo,hi (gaussian)")
    p_loc.add_argument("--time", type=float, default=0.0, help="recorded on the report")
    p_loc.add_argument(
        "--csv", help="write a right-endpoint sweep: a,b,probability,possibility"
    )
    p_loc.add_argument(
        "--sweep-steps", type=int, help=f"sweep windows (with --csv; default {DEFAULT_SWEEP_STEPS})"
    )
    p_loc.add_argument(
        "--dump-density", help="write the realized density as x,value CSV"
    )
    p_loc.set_defaults(handler=_cmd_localize)

    p_qubit = sub.add_parser("qubit", help="prepare, gate, fuzzify, defuzzify")
    p_qubit.add_argument("--init", help="0 | 1 | |0> | |1> | amp re,im,re,im")
    p_qubit.add_argument("--fuzzy", help="direct fuzzy state mu0,mu1")
    p_qubit.add_argument(
        "--gate", action="append", help="H | X | Z | u:8 numbers (repeatable)"
    )
    p_qubit.add_argument(
        "--report",
        choices=("state", "memberships", "defuzz", "sample"),
        default="memberships",
    )
    p_qubit.add_argument("--method", choices=("argmax", "born_sample"),
                         help=f"with --report defuzz (default: {DEFAULT_METHOD})")
    p_qubit.add_argument("--draws", type=int,
                         help=f"with --report sample (default: {DEFAULT_DRAWS})")
    p_qubit.add_argument("--seed", type=int,
                         help=f"when a draw happens (default: ${SEED_ENV_VAR}, then 0)")
    p_qubit.set_defaults(handler=_cmd_qubit)

    p_ent = sub.add_parser("entangle", help="two-qubit states and the det witness")
    p_ent.add_argument("--state", help="bell | amp with 4 re,im pairs")
    p_ent.add_argument("--a", help="first qubit literal (tensor build)")
    p_ent.add_argument("--b", help="second qubit literal (tensor build)")
    p_ent.add_argument("--tol", type=float, default=1e-10)
    p_ent.set_defaults(handler=_cmd_entangle)

    p_lang = sub.add_parser("lang", help="fuzzy language membership")
    lsub = p_lang.add_subparsers(dest="lang_command", required=True)
    p_grade = lsub.add_parser("grade", help="grade of one word")
    p_grade.add_argument("--word", required=True)
    p_grade.add_argument(
        "--language",
        default="builtin",
        help="builtin | table:path=F[,alphabet=SYMS]",
    )
    p_grade.set_defaults(handler=_cmd_lang)

    return parser


# main builds one parser per process; parsing leaves a parser as it was
_parser = functools.cache(build_parser)


def _line(key: str, value: bool | int | float) -> str:
    """One ``key = value`` line: booleans as true/false, integers bare,
    reals with nine digits after the decimal point."""
    if isinstance(value, bool):
        return f"{key} = {'true' if value else 'false'}\n"
    if isinstance(value, int):
        return f"{key} = {value}\n"
    return f"{key} = {value:.9f}\n"


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(_merge_negative_values(raw))
    # the handler runs to its end, file writes included, before stdout sees
    # a line: a failed call prints its one error line and nothing else
    try:
        text = "".join(_line(key, value) for key, value in args.handler(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
