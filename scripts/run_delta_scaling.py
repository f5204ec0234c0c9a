#!/usr/bin/env python3
"""Sweep the spectral parameter on the worst-case lazy-cycle family and fit
the classical and quantum cost exponents.

Writes delta_scaling.csv (one row per laziness setting) and prints the fitted
log-log slopes: expected classical steps against Delta, the quantum gate
ledger raw and with its explicit log factors divided out, and the ledger
against 1/eps at fixed Delta.
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from lculab.cost import fit_scaling, theorem2_cost, theorem2_log_correction
from lculab.markov import expected_mc_cost, lazy_cycle, mark_states


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-states", type=int, default=16)
    parser.add_argument("--levels", type=int, default=7, help="laziness doublings to sweep")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--mc-epsilon", type=float, default=0.5)
    parser.add_argument("--out", default="delta_scaling_out")
    args = parser.parse_args()

    rows = []
    classical, quantum, quantum_raw = [], [], []
    for k in range(1, args.levels + 1):
        stay = 1.0 - 2.0**-k
        chain = lazy_cycle(args.n_states, stay)
        mp = mark_states(chain, [0])
        samples, steps = expected_mc_cost(mp, args.mc_epsilon)
        report = theorem2_cost(mp.delta, args.epsilon, 3, args.n_states)
        corrected = report.total / theorem2_log_correction(mp.delta, args.epsilon, 3)
        rows.append([stay, mp.delta, samples, steps, report.total, corrected])
        classical.append((mp.delta, steps))
        quantum.append((mp.delta, corrected))
        quantum_raw.append((mp.delta, report.total))

    eps_points = []
    for eps in np.geomspace(args.epsilon, args.epsilon / 50, 8):
        total = theorem2_cost(0.25, float(eps), 3, args.n_states).total
        eps_points.append((1.0 / eps, total / theorem2_log_correction(0.25, float(eps), 3)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "delta_scaling.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["stay", "delta", "mc_samples", "mc_expected_steps", "quantum_total", "quantum_corrected"]
        )
        writer.writerows(rows)

    deltas = [r[1] for r in rows]
    print(f"Delta range: {max(deltas):.3e} .. {min(deltas):.3e} "
          f"({math.log10(max(deltas) / min(deltas)):.2f} decades)")
    print(f"classical steps vs Delta:        slope {fit_scaling(classical).exponent:+.3f}")
    print(f"quantum ledger vs Delta (raw):   slope {fit_scaling(quantum_raw).exponent:+.3f}")
    print(f"quantum ledger vs Delta (domin): slope {fit_scaling(quantum).exponent:+.3f}")
    print(f"quantum ledger vs 1/eps (domin): slope {fit_scaling(eps_points).exponent:+.3f}")
    print(f"wrote {out / 'delta_scaling.csv'}")


if __name__ == "__main__":
    main()
