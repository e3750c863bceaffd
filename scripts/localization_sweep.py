"""Sweep a growing window across a wavepacket and compare the additive
(probability) and possibilistic (supremum of the rescaled density)
readings of "the particle is in [a, x)".

The two readings disagree in a characteristic way: probability rewards
wide windows wherever mass accumulates, possibility only cares about the
best point the window touches.  The script prints a sampled table of the
sweep, then a peak-vs-tail comparison where the two readings rank a pair
of windows in opposite orders.

Usage:
    python3 scripts/localization_sweep.py
    python3 scripts/localization_sweep.py --sigma 2 --steps 400 --csv sweep.csv
"""

import argparse

from vagueq import WavefunctionSpec, localization_sweep, localize, write_sweep_csv


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mu", type=float, default=0.0, help="gaussian center")
    p.add_argument("--sigma", type=float, default=1.0, help="gaussian width")
    p.add_argument("--a", type=float, default=-8.0, help="sweep start")
    p.add_argument("--b", type=float, default=8.0, help="sweep end")
    p.add_argument("--steps", type=int, default=200, help="windows per sweep")
    p.add_argument("--csv", dest="csv_path", default=None, help="write all rows here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    spec = WavefunctionSpec.gaussian(cfg.mu, cfg.sigma)
    rows = localization_sweep(spec, cfg.a, cfg.b, steps=cfg.steps)

    print(f"gaussian(mu={cfg.mu}, sigma={cfg.sigma}), windows [{cfg.a}, x)")
    print(f"{'x':>10}  {'probability':>12}  {'possibility':>12}")
    stride = max(1, len(rows) // 10)
    for a, x, prob, poss in rows[::stride] + [rows[-1]]:
        print(f"{x:>10.4f}  {prob:>12.6f}  {poss:>12.6f}")

    if cfg.csv_path:
        write_sweep_csv(rows, cfg.csv_path)  # as `vagueq localize --csv`
        print(f"wrote {len(rows)} rows to {cfg.csv_path}")

    # A narrow window on the peak against a wide window in the tail: the
    # additive reading prefers the tail (more accumulated mass), the
    # possibilistic reading prefers the peak (it touches the mode).
    lo, hi = cfg.mu - 0.05 * cfg.sigma, cfg.mu + 0.05 * cfg.sigma
    tail_lo, tail_hi = cfg.mu + 1.0 * cfg.sigma, cfg.mu + 3.0 * cfg.sigma
    peak = localize(spec, lo, hi)
    tail = localize(spec, tail_lo, tail_hi)
    print()
    print(f"narrow peak window [{lo:g}, {hi:g}):")
    print(f"  probability = {peak.probability:.6f}   possibility = {peak.possibility:.6f}")
    print(f"wide tail window [{tail_lo:g}, {tail_hi:g}):")
    print(f"  probability = {tail.probability:.6f}   possibility = {tail.possibility:.6f}")
    prob_pick = "peak" if peak.probability > tail.probability else "tail"
    poss_pick = "peak" if peak.possibility > tail.possibility else "tail"
    print(f"probability ranks {prob_pick} first; possibility ranks {poss_pick} first")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
