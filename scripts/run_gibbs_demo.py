#!/usr/bin/env python3
"""Prepare thermal states for a small transverse-field chain across a
temperature sweep and print the verification summary per point."""

import argparse
import math

from lculab.gap_amplification import parse_pauli_lines
from lculab.gibbs import GibbsTask, prepare_gibbs
from lculab.operators import HermitianOperator

DEFAULT_MODEL = "1.0 ZZI\n1.0 IZZ\n0.5 XII\n0.5 IXI\n0.5 IIX"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pauli", default=DEFAULT_MODEL, help="coeff PAULI_STRING lines")
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--betas", type=float, nargs="+", default=None)
    args = parser.parse_args()

    matrix, weights, offset = parse_pauli_lines(args.pauli)
    h = HermitianOperator(matrix)
    norm = h.spectral_norm
    betas = args.betas or [round(x / norm, 4) for x in (4.0, 6.0, 8.0, 12.0)]
    print(f"dim = {h.dim}, spectral norm = {norm:.4f}, identity offset = {offset:.4f}")
    print(f"{'beta':>8} {'eps_prime':>10} {'J':>5} {'trace_dist':>11} "
          f"{'success_amp':>12} {'sqrt(Z/N)':>10} {'rounds':>7}")
    for beta in betas:
        task = GibbsTask(hamiltonian=h, beta=beta, epsilon=args.epsilon, weights=weights)
        res = prepare_gibbs(task)
        target = math.sqrt(task.partition_function / h.dim)
        print(f"{beta:8.3f} {task.epsilon_prime:10.2e} {res.grid.j_max:5d} "
              f"{res.trace_dist:11.3e} {res.success_amplitude:12.6f} {target:10.6f} "
              f"{res.amplification_rounds:7d}")
        for message in res.precondition_warnings:
            print(f"         note: {message}")


if __name__ == "__main__":
    main()
