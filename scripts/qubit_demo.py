"""Walk a qubit through the fuzzy pipeline: gate, fuzzify, defuzzify
both ways, then check a two-qubit state for entanglement.

The demo prepares |0>, applies a Hadamard gate, turns the amplitudes
into membership grades (|amplitude|^2), and collapses the fuzzy state
twice: once by argmax (deterministic, ties to 0) and once by a seeded
Born-rule draw.  It then estimates the Born frequency over many draws
and finishes with the amplitude-determinant entanglement test on a Bell
pair and on a product state.

Usage:
    python3 scripts/qubit_demo.py
    python3 scripts/qubit_demo.py --seed 7 --draws 500000
"""

import argparse

import numpy as np

from vagueq import (
    amplitude_determinant,
    apply_hadamard,
    bell_state,
    born_compatible,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    ket0,
    tensor_product,
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="seed for Born draws")
    p.add_argument("--draws", type=int, default=100000, help="Born sample size")
    return p.parse_args(argv)


def main(argv=None) -> int:
    cfg = parse_args(argv)

    state = apply_hadamard(ket0())
    a0, a1 = state.amplitudes
    print(f"H|0> amplitudes: a0 = {a0:.9f}, a1 = {a1:.9f}")

    fuzzy = fuzzify(state)
    mu0, mu1 = fuzzy.grades
    print(f"membership grades: mu0 = {mu0:.9f}, mu1 = {mu1:.9f}")
    print(f"born_compatible = {born_compatible(fuzzy)}")

    print(f"defuzzify argmax      -> {defuzzify(fuzzy, method='argmax')} "
          "(equal grades tie to 0)")
    print(f"defuzzify born seed={cfg.seed} -> "
          f"{defuzzify(fuzzy, method='born_sample', seed=cfg.seed)}")

    outcomes = born_sample_many(fuzzy, cfg.draws, seed=cfg.seed)
    freq0 = float(np.mean(outcomes == 0))
    print(f"born frequency of 0 over {cfg.draws} draws: {freq0:.5f}")

    print()
    bell = bell_state()
    print(f"bell pair: |det| = {abs(amplitude_determinant(bell)):.9f}, "
          f"entangled = {is_entangled(bell)}")
    product = tensor_product(apply_hadamard(ket0()), ket0())
    print(f"(H|0>) x |0>: |det| = {abs(amplitude_determinant(product)):.9f}, "
          f"entangled = {is_entangled(product)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
