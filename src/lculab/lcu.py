"""The numerical kernel of both pipelines, and amplitude-amplification round counting.

Both pipelines apply an LCU of evolutions exp(-i y_j t H~) over a symmetric
Gaussian node grid. Because the grid is symmetric, the sum is the real even
filter sum_j w_j cos(y_j t E) of the generator, and the pipelines evaluate it
on the spectrum of H through `gaussian_cosine_series`. It runs its Chebyshev
recurrence over cache-sized blocks of the argument with in-place buffer
updates; every element still sees the same floating-point operations in the
same order, so its values are those of the plain whole-array recurrence, bit
for bit. `cosine_series_bounds` bounds how far it lies from exp(-a^2/2) in
closed form, so both grid calibrations run it only where the bound leaves a
verdict open.

Amplitude amplification is modeled by round counting on exact success
amplitudes rather than by simulating reflection circuits: the round count is
the only thing downstream cost ledgers consume, and exact amplitudes make it
deterministic.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import AnnihilationError

logger = logging.getLogger(__name__)

_COSINE_BLOCK = 1 << 14
UNIT_ROUNDOFF = 2.0**-53


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
    `_COSINE_BLOCK` elements, updating the output block and four buffers in
    place so they stay in cache; the buffers are allocated once, and the last
    block uses their leading part. Each element sees the same operations in
    the same order, acc += (2 w_j) T_j then T_{j+1} = (2c) T_j - T_{j-1}, so
    the result does not depend on the block size, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    w = gaussian_weights(delta_y, j_max)
    flat = a.reshape(-1)
    out = np.empty(flat.shape)
    buffers = np.empty((4, min(_COSINE_BLOCK, flat.size)))
    for start in range(0, flat.size, _COSINE_BLOCK):
        acc = out[start : start + _COSINE_BLOCK]
        acc.fill(w[0])
        t_cur, c2, t_prev, t_next = buffers[:, : acc.size]
        np.multiply(delta_y, flat[start : start + _COSINE_BLOCK], out=t_cur)
        np.cos(t_cur, out=t_cur)
        np.multiply(2.0, t_cur, out=c2)
        t_prev.fill(1.0)
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


def cosine_series_bounds(a_max: float, delta_y: float, j_max: int) -> tuple[float, float, float]:
    """(images, tail, roundoff): closed-form bounds on how the computed
    `gaussian_cosine_series(a, delta_y, j_max)` differs from exp(-a^2/2) at
    0 <= a <= a_max < pi/delta_y.

    The series is the trapezoid rule for the Gaussian's Fourier integral,
    truncated at |j| = J. By Poisson summation the untruncated sum is
    exp(-a^2/2) plus the images sum_{m!=0} exp(-(a - 2 pi m/delta_y)^2/2), all
    positive, and truncation subtracts sum_{|j|>J} w_j cos(j delta_y a):
    - images <= 2 sum_{m>=1} exp(-(2 pi m/delta_y - a_max)^2/2), bounded by its
      first term over a geometric factor: b_m = 2 pi m/delta_y - a_max grows
      by 2 pi/delta_y per m, so the m >= 2 terms shrink by exp(-2 pi b_1/delta_y)
      or faster. It is inf when a_max >= pi/delta_y.
    - tail = erfc(J delta_y/sqrt(2)) bounds the weight past |j| = J, since the
      Gaussian falls past every node.
    - roundoff = 16 ((1 + 1/delta_y)^2 + (J+1) s) u, with u = 2^-53 and
      s = 1 + delta_y, bounds the floating-point error of one series. The
      cosine recurrence errs by at most 5.5 j^2 u at term j: 4 ulps in its
      cosine move T_j by at most j^2 times that, and each step's 3u reaches
      T_j through |U_n| <= n+1. The weights bound the weighted sum:
      sum_j 2 w_j j^2 <= (1 + 0.6 delta_y)/delta_y^2, since y^2 phi(y) is
      unimodal. A rounded argument moves the phase by at most 3 pi u, which
      the series feels through sum_j 2 w_j j <= (0.8 + 0.5 delta_y)/delta_y.
      With the J additions into the sum, each at most s in size, and the
      weights' own rounding, the total fits the bound with room.
    """
    if a_max >= math.pi / delta_y:
        images = math.inf
    else:
        b1 = 2.0 * math.pi / delta_y - a_max
        images = 2.0 * math.exp(-0.5 * b1 * b1) / -math.expm1(-2.0 * math.pi * b1 / delta_y)
    tail = math.erfc(j_max * delta_y / math.sqrt(2.0))
    roundoff = 16.0 * UNIT_ROUNDOFF * ((1.0 + 1.0 / delta_y) ** 2 + (j_max + 1) * (1.0 + delta_y))
    return images, tail, roundoff


def amplification_rounds(success_amplitude: float, constants: Constants = DEFAULT_CONSTANTS) -> int:
    """ceil(c / asin(a)): the round count that amplifies amplitude a to order one."""
    a = min(max(success_amplitude, 0.0), 1.0)
    if a != success_amplitude:
        logger.warning("success amplitude %.6g clamped to %g for round counting", success_amplitude, a)
    if a == 0.0:
        raise AnnihilationError("cannot amplify a zero amplitude")
    return max(1, math.ceil(constants.amp_round_constant / math.asin(a)))


