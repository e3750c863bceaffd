"""Command-line interface.

Numeric results print as ``key = value`` lines; CSV dumps go behind
``--csv`` (sweeps) or ``--dump-density`` (re-ingestable samples).  Exit
codes: 0 on success, 1 on domain errors, 2 on usage errors; both errors
write one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .fuzzy import (
    FiniteFuzzySet,
    GridFunction,
    TNormKind,
    fuzzy_complement,
    fuzzy_intersection,
    fuzzy_union,
    read_fuzzy_set,
    read_grid_csv,
    write_fuzzy_set,
    write_grid_csv,
)
from .integrals import grid_tolerance, sugeno_integral
from .intervals import IntervalSet
from .language import read_grade_table, zeros_then_ones_language
from .localize import WavefunctionSpec, localize, localization_sweep, realize_density
from .measures import (
    AdditiveMeasure,
    MeasureSpec,
    check_additivity,
    check_possibility_union_axiom,
    measure_of,
    read_table_measure,
)
from .qubits import (
    FuzzyQubitState,
    QubitState,
    TwoQubitState,
    amplitude_determinant,
    apply_hadamard,
    apply_pauli_x,
    apply_pauli_z,
    apply_unitary,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    ket0,
    ket1,
    parse_state_literal,
    tensor_product,
)
from .render import format_value

SEED_ENV_VAR = "VAGUEQ_SEED"

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


def emit(key: str, value) -> None:
    print(f"{key} = {format_value(value)}")


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
        domain = parse_interval(args.domain) if args.domain else None
        return WavefunctionSpec.gaussian(
            mu=float(kv.get("mu", "0")),
            sigma=float(kv.get("sigma", "1")),
            domain=domain,
            grid_points=args.grid,
        )
    if args.domain:
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


def _event_from_args(args) -> IntervalSet | frozenset:
    given_interval = getattr(args, "interval", None)
    given_subset = getattr(args, "subset", None)
    if (given_interval is None) == (given_subset is None):
        raise ValueError("give exactly one of --interval or --subset")
    if given_interval is not None:
        lo, hi = parse_interval(given_interval)
        return IntervalSet.interval(lo, hi)
    return frozenset(
        part.strip() for part in given_subset.split("|") if part.strip()
    )


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- handlers ---------------------------------------------------------------

def _cmd_fuzzy(args) -> int:
    a = read_fuzzy_set(args.a)
    kind = TNormKind(args.tnorm)
    if args.op == "complement":
        result = fuzzy_complement(a)
    else:
        if args.b is None:
            raise ValueError(f"fuzzy {args.op} needs --b")
        b = read_fuzzy_set(args.b)
        op = fuzzy_union if args.op == "union" else fuzzy_intersection
        result = op(a, b, kind)
    for label, grade in result.items():
        emit(label, grade)
    if args.out:
        write_fuzzy_set(result, args.out)
    return 0


def _cmd_measure_eval(args) -> int:
    m = load_measure(args.measure)
    event = _event_from_args(args)
    emit("measure", measure_of(m, event))
    payload = getattr(m, "distribution", None)
    if isinstance(m, AdditiveMeasure):
        emit("normalized", m.is_normalized)
        payload = m.density
    if args.csv:
        if not isinstance(payload, GridFunction):
            raise ValueError("--csv needs a measure with a grid payload")
        write_grid_csv(payload, args.csv)
    return 0


def _cmd_measure_check(args) -> int:
    m = load_measure(args.measure)
    parts = parse_parts(args.parts)
    if args.check == "maxitivity":
        holds = check_possibility_union_axiom(m, parts)
    else:
        holds = check_additivity(m, parts, tol=args.tol)
    emit("holds", holds)
    return 0


def _cmd_integrate(args) -> int:
    if args.method == "lebesgue":
        f = read_grid_csv(args.density)
        lo, hi = parse_interval(args.interval)
        emit("integral", f.integral_over(IntervalSet.interval(lo, hi)))
        if args.csv:
            write_grid_csv(f, args.csv)
        return 0
    f = load_function(args.function)
    m = load_measure(args.measure)
    event = _event_from_args(args)
    emit("sugeno", sugeno_integral(f, event, m))
    if isinstance(f, GridFunction):
        emit("grid_tolerance", grid_tolerance(f))
        if args.csv:
            write_grid_csv(f, args.csv)
    elif args.csv:
        raise ValueError("--csv needs a grid function")
    return 0


def _cmd_localize(args) -> int:
    w = load_wavefunction(args.wavefunction, args)
    a, b = parse_interval(args.interval)
    density = realize_density(w)  # once: the report, sweep and dump share it
    w = WavefunctionSpec.from_samples(density)
    report = localize(w, a, b, time=args.time)
    rows = localization_sweep(w, a, b, steps=args.sweep_steps) if args.csv else None
    for line in report.lines():
        print(line)
    if args.dump_density:
        write_grid_csv(density, args.dump_density)
    if rows is not None:
        _write_csv(args.csv, "a,b,probability,possibility", rows)
    return 0


_GATES = {
    "H": apply_hadamard,
    "X": apply_pauli_x,
    "Z": apply_pauli_z,
}


def _apply_gates(state: QubitState, gates: list[str]) -> QubitState:
    for gate in gates:
        name = gate.strip()
        if name in _GATES:
            state = _GATES[name](state)
            continue
        if name.startswith("u:"):
            nums = [float(p) for p in name[2:].split(",")]
            if len(nums) != 8:
                raise ValueError(
                    "u: gate needs 8 numbers (re,im per entry, row-major)"
                )
            matrix = np.array(
                [
                    [complex(nums[0], nums[1]), complex(nums[2], nums[3])],
                    [complex(nums[4], nums[5]), complex(nums[6], nums[7])],
                ]
            )
            state = apply_unitary(state, matrix)
            continue
        raise ValueError(f"unknown gate {gate!r}; use H, X, Z, or u:8 numbers")
    return state


def _parse_init(text: str) -> QubitState:
    if text.strip() == "0":
        return ket0()
    if text.strip() == "1":
        return ket1()
    state = parse_state_literal(text)
    if not isinstance(state, QubitState):
        raise ValueError("qubit commands need a one-qubit state")
    return state


def _cmd_qubit(args) -> int:
    if args.fuzzy is not None and args.init is not None:
        raise ValueError("give either --init or --fuzzy, not both")
    if args.fuzzy is not None:
        if args.gate:
            raise ValueError("gates act on amplitudes, not fuzzy states")
        mu0, mu1 = parse_interval(args.fuzzy)
        state = None
        fuzzy_state = FuzzyQubitState(mu0, mu1)
    else:
        state = _apply_gates(_parse_init(args.init or "0"), args.gate or [])
        fuzzy_state = fuzzify(state)

    if args.report == "state":
        if state is None:
            raise ValueError("fuzzy states have no amplitudes to report")
        emit("a0_re", state.a0.real)
        emit("a0_im", state.a0.imag)
        emit("a1_re", state.a1.real)
        emit("a1_im", state.a1.imag)
    elif args.report == "memberships":
        emit("mu0", fuzzy_state.mu0)
        emit("mu1", fuzzy_state.mu1)
        emit("born_compatible", fuzzy_state.born_compatible)
    elif args.report == "defuzz":
        seed = resolve_seed(args.seed)
        outcome = defuzzify(fuzzy_state, method=args.method, seed=seed)
        emit("outcome", outcome)
    else:  # sample
        seed = resolve_seed(args.seed)
        outcomes = born_sample_many(fuzzy_state, args.draws, seed=seed)
        emit("draws", args.draws)
        emit("freq0", float(np.mean(outcomes == 0)))
        emit("freq1", float(np.mean(outcomes == 1)))
    return 0


def _cmd_entangle(args) -> int:
    if args.state is None and not (args.a and args.b):
        raise ValueError("give --state, or both --a and --b")
    if args.state is not None and (args.a or args.b):
        raise ValueError("give either --state or the --a/--b pair")
    if args.state is not None:
        state = parse_state_literal(args.state)
        if not isinstance(state, TwoQubitState):
            raise ValueError("entangle needs a two-qubit state")
    else:
        qa = _parse_init(args.a)
        qb = _parse_init(args.b)
        state = tensor_product(qa, qb)
    emit("det", abs(amplitude_determinant(state)))
    emit("entangled", is_entangled(state, tol=args.tol))
    return 0


def _cmd_lang(args) -> int:
    spec = args.language
    if spec == "builtin":
        lang = zeros_then_ones_language()
    else:
        head, kv = _parse_spec(spec, ("table",))
        _take_keys(kv, ("path",), ("alphabet",))
        lang = read_grade_table(kv["path"], alphabet=kv.get("alphabet"))
    emit("grade", lang.grade(args.word))
    return 0


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
    p_fuzzy.add_argument("--b", help="second fuzzy set file")
    p_fuzzy.add_argument(
        "--tnorm",
        choices=tuple(k.value for k in TNormKind),
        default="minimum",
        help="t-norm/t-conorm pair (default: minimum)",
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
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.set_defaults(handler=_cmd_measure_check)

    p_int = sub.add_parser("integrate", help="Lebesgue or Sugeno integral")
    p_int.add_argument("method", choices=("lebesgue", "sugeno"))
    p_int.add_argument("--density", help="x,value CSV (lebesgue)")
    p_int.add_argument("--function", help="grid:F.csv or finite:F (sugeno)")
    p_int.add_argument("--measure", help="measure spec (sugeno)")
    p_int.add_argument("--interval", help="half-open interval a,b")
    p_int.add_argument("--subset", help="finite event, labels joined by |")
    p_int.add_argument("--csv", help="dump the integrand as x,value CSV")
    p_int.set_defaults(handler=_cmd_integrate)

    p_loc = sub.add_parser(
        "localize", help="probability vs possibility of finding the particle"
    )
    p_loc.add_argument(
        "--wavefunction",
        required=True,
        help="gaussian:mu=0,sigma=1 | box:n=1,L=1 | samples:path=F.csv",
    )
    p_loc.add_argument("--interval", required=True, help="window a,b")
    p_loc.add_argument("--grid", type=int, default=10001, help="grid points")
    p_loc.add_argument("--domain", help="override domain lo,hi (gaussian)")
    p_loc.add_argument("--time", type=float, default=0.0, help="recorded on the report")
    p_loc.add_argument(
        "--csv", help="write a right-endpoint sweep: a,b,probability,possibility"
    )
    p_loc.add_argument("--sweep-steps", type=int, default=200)
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
    p_qubit.add_argument("--method", choices=("argmax", "born_sample"), default="argmax")
    p_qubit.add_argument("--draws", type=int, default=1)
    p_qubit.add_argument("--seed", type=int, default=None)
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


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(raw))
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
