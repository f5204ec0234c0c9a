"""The numerical kernel of both pipelines, and amplitude-amplification round counting.

Both pipelines apply an LCU of evolutions exp(-i y_j t H~) over a symmetric
Gaussian node grid. Because the grid is symmetric, the sum is the real even
filter sum_j w_j cos(y_j t E) of the generator, and the pipelines evaluate it
on the spectrum of H through `gaussian_cosine_series`. It runs its Chebyshev
recurrence over cache-sized blocks of the argument with in-place buffer
updates; every element still sees the same floating-point operations in the
same order, so its values are those of the plain whole-array recurrence, bit
for bit.

Amplitude amplification is modeled by round counting on exact success
amplitudes rather than by simulating reflection circuits: the round count is
the only thing downstream cost ledgers consume, and exact amplitudes make it
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import AnnihilationError

_COSINE_BLOCK = 1 << 14


def gaussian_weights(delta_y: float, j_max: int) -> np.ndarray:
    """Weights w_j = delta_y exp(-y_j^2/2)/sqrt(2 pi) for j = 0..j_max."""
    j = np.arange(j_max + 1)
    return delta_y / math.sqrt(2 * math.pi) * np.exp(-0.5 * (j * delta_y) ** 2)


def gaussian_weight_sum(delta_y: float, j_max: int) -> float:
    """w_0 + 2 sum_{j>=1} w_j: the total weight of the symmetric grid, close to 1."""
    w = gaussian_weights(delta_y, j_max)
    return float(w[0] + 2 * w[1:].sum())


def gaussian_cosine_series(a, delta_y: float, j_max: int):
    """Evaluate sum_{j=-J..J} w_j exp(-i y_j a) over the symmetric Gaussian grid.

    Real by symmetry: w_0 + 2 sum_{j>=1} w_j cos(j delta_y a). Uses the
    Chebyshev cosine recurrence so the cost per grid node is a multiply-add,
    not a transcendental call. `a` may be a scalar or any ndarray; the result
    is a C-ordered float array of its shape.

    The recurrence runs over the flattened argument in blocks of
    `_COSINE_BLOCK` elements, updating five block-sized buffers in place so
    they stay in cache. Each element sees the same operations in the same
    order, acc += (2 w_j) T_j then T_{j+1} = (2c) T_j - T_{j-1}, so the
    result does not depend on the block size, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    w = gaussian_weights(delta_y, j_max)
    flat = a.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _COSINE_BLOCK):
        acc = out[start : start + _COSINE_BLOCK]
        acc.fill(w[0])
        t_cur = np.cos(delta_y * flat[start : start + _COSINE_BLOCK])
        c2 = 2.0 * t_cur
        t_prev = np.ones_like(t_cur)
        t_next = np.empty_like(t_cur)
        for j in range(1, j_max + 1):
            wj = w[j]
            if wj == 0.0:
                break
            np.multiply(t_cur, 2.0 * wj, out=t_next)
            acc += t_next
            np.multiply(c2, t_cur, out=t_next)
            t_next -= t_prev
            t_prev, t_cur, t_next = t_cur, t_next, t_prev
    return out.reshape(a.shape)


def amplification_rounds(success_amplitude: float, constants: Constants = DEFAULT_CONSTANTS) -> int:
    """ceil(c / asin(a)): the round count that amplifies amplitude a to order one."""
    a = min(max(success_amplitude, 0.0), 1.0)
    if a == 0.0:
        raise AnnihilationError("cannot amplify a zero amplitude")
    return max(1, math.ceil(constants.amp_round_constant / math.asin(a)))


