"""The numerical kernel of both pipelines, and amplitude-amplification round counting.

Both pipelines apply an LCU of evolutions exp(-i y_j t H~) over a symmetric
Gaussian node grid. Because the grid is symmetric, the sum is the real even
filter sum_j w_j cos(y_j t E) of the generator, evaluated on the spectrum of H.
- `gaussian_cosine_series` sums the series directly, a block of arguments at
  a time: np.cos of the phases y_j a, weighted by one BLAS product, so a
  value errs by about (J+1) u. The thermal pipeline (`HsGrid.kernel`) reads
  it, on at most 4096 eigenvalues (the dimension cap) or 64 calibration
  samples.
- `GaussianCosineTable` holds the same series on a fixed interval as a
  piecewise Chebyshev series of degree 15, built in closed form by
  Jacobi-Anger. It costs 16 Clenshaw steps per argument, whatever J is, and
  errs near float64's resolution. The hitting pipeline's inverse filter
  reads it.
`cosine_series_bounds` bounds how far the series lies from exp(-a^2/2) in
closed form, and the direct sum's roundoff; `cosine_table_bound` bounds the
table's. Both grid calibrations bound a round's error by an interval from
those bounds, and evaluate the series only when the interval holds the
target.

Amplitude amplification is modeled by round counting on exact success
amplitudes rather than by simulating reflection circuits: the round count is
the only thing downstream cost ledgers consume, and exact amplitudes make it
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import AnnihilationError, ValidationError

_COSINE_BLOCK = 1 << 14
UNIT_ROUNDOFF = 2.0**-53
# The degree of `GaussianCosineTable`'s cell series, and the power-series
# terms its Bessel values take.
_TABLE_DEGREE, _BESSEL_TERMS = 15, 10


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

    Real by symmetry: S(a) = sum_{j=0..J} w'_j cos(y_j a), with y_j = j delta_y,
    w'_0 = w_0 and w'_j = 2 w_j. Summed directly, a block of arguments at a
    time: np.cos of the block's outer product with the nodes, weighted by one
    BLAS matrix-vector product, so a value errs by about (J+1) u
    (`cosine_series_bounds`); its last bits may depend on the arguments that
    share its block, in whatever order the BLAS kernel sums. A block holds at
    most max(_COSINE_BLOCK, J+1) phases. `a` may be a scalar or any ndarray;
    the result is a C-ordered float array of its shape.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    y = np.arange(j_max + 1) * delta_y
    w = gaussian_weights(delta_y, j_max)
    w[1:] *= 2.0
    out = np.empty(flat.shape)
    rows = max(1, _COSINE_BLOCK // (j_max + 1))
    phases = np.empty((min(rows, flat.size), j_max + 1))
    for start in range(0, flat.size, rows):
        p = np.multiply.outer(flat[start : start + rows], y, out=phases[: flat.size - start])
        np.matmul(np.cos(p, out=p), w, out=out[start : start + rows])
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
    - roundoff bounds the floating-point error of one direct sum. With
      u = 2^-53, n = J+1, gamma_n = n u/(1 - n u) and the weight sums
      s = 1 + 0.4 delta_y >= sum_j w'_j (at most w_0 plus the Gaussian's
      integral), sum_j w'_j y_j <= 0.8 + 0.5 delta_y and sum_j w'_j y_j^2
      <= 1 + 0.6 delta_y (y phi(y) and y^2 phi(y) are unimodal), it adds the
      product's summation, gamma_n s in any order; the cosines, each within
      4 ulps, 4 s u; the weights' rounding, (12 + 1.5 y_j^2) u w'_j each (see
      `cosine_table_bound`); the phases, as y_j and y_j a each round once,
      2u y_j a_max per term; and s u for the products of these errors.
    """
    if a_max >= math.pi / delta_y:
        images = math.inf
    else:
        b1 = 2.0 * math.pi / delta_y - a_max
        images = 2.0 * math.exp(-0.5 * b1 * b1) / -math.expm1(-2.0 * math.pi * b1 / delta_y)
    tail = math.erfc(j_max * delta_y / math.sqrt(2.0))
    n, s = j_max + 1, 1.0 + 0.4 * delta_y
    gamma_n = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)
    moments = 1.5 * (1.0 + 0.6 * delta_y) + 2.0 * (0.8 + 0.5 * delta_y) * a_max
    roundoff = gamma_n * s + (17.0 * s + moments) * UNIT_ROUNDOFF
    return images, tail, roundoff


def _bessel_values(z: np.ndarray) -> np.ndarray:
    """J_m(z) for m = 0.._TABLE_DEGREE at 0 <= z <= 1, shape (z.size, degree + 1), by
    the power series (z/2)^m/m! sum_k (-z^2/4)^k/(k! (m+1)_k) in Horner form.

    The lead factor takes two roundings per order. The ratio of consecutive
    series terms is at most 1/4, so the series lies in [3/4, 1], and Horner
    on rounded ratios adds about 3u of relative error: each J_m is within
    (2m + 5)u relative. Ten terms leave a remainder below 1e-21 relative.
    """
    half = 0.5 * z[:, None]
    m = np.arange(_TABLE_DEGREE + 1)
    lead = np.cumprod(np.concatenate([np.ones_like(half), half / m[1:]], axis=1), axis=1)
    q = -(half * half)
    k = np.arange(1, _BESSEL_TERMS + 1)[:, None]
    ratios = 1.0 / (k * (m + k))
    series = np.ones_like(lead)
    term = np.empty_like(lead)
    for ratio in ratios[::-1]:
        np.multiply(q, ratio, out=term)
        term *= series
        np.add(term, 1.0, out=series)
    return lead * series


class GaussianCosineTable:
    """`gaussian_cosine_series` on 0 <= a <= a_max as a piecewise Chebyshev series
    of degree 15, built in closed form.

    The cells [2ih, 2(i+1)h] have half-width h, the largest power of two below
    1/y_J, so the scalings by h and 2h below are exact. On cell i, with
    centre c = (2i+1)h and a = c + ht, Jacobi-Anger expands each term of
    S(a) = sum_j w'_j cos(y_j a) (w'_0 = w_0, w'_j = 2 w_j) as
        cos(y_j c) [J_0(z) + 2 sum_k (-1)^k J_2k(z) T_2k(t)]
        - sin(y_j c) 2 sum_k (-1)^k J_2k+1(z) T_2k+1(t),   z = y_j h < 1,
    so coefficient m of the cell is a sum over j of the basis entry
    w'_j eps_m (+-)J_m(z) times the cosine or sine of the phase y_j c: a
    matrix product over j. Terms past degree 15 are below 2 (1/2)^16/16! of
    the weight. A value is the Clenshaw sum of its cell's coefficients at t,
    16 steps whatever J is, and depends only on its own argument.
    `cosine_table_bound` bounds its error.

    The cells are built in groups of p ~ sqrt(cells), and the argument is
    evaluated in blocks of `_COSINE_BLOCK` elements, so no buffer has
    cells * (J+1) entries or grows with the argument's size.
    """

    def __init__(self, a_max: float, delta_y: float, j_max: int):
        if not (0.0 <= a_max < math.inf and delta_y > 0 and j_max >= 1):
            raise ValidationError(
                f"a cosine table needs 0 <= a_max < inf, delta_y > 0 and J >= 1, got "
                f"{a_max!r}, {delta_y!r}, {j_max!r}"
            )
        self.a_max, self.delta_y, self.j_max = a_max, delta_y, j_max
        self.half_width = _table_half_width(delta_y, j_max)
        h = self.half_width
        cells = int(a_max / (2.0 * h)) + 1
        y = np.arange(j_max + 1) * delta_y
        weights = gaussian_weights(delta_y, j_max)
        weights[1:] *= 2.0
        m = np.arange(_TABLE_DEGREE + 1)
        # eps_m (-1)^k for m = 2k and -2 (-1)^k for m = 2k+1: eps_m (-1)^ceil(m/2)
        signs = np.where(m == 0, 1.0, 2.0) * (-1.0) ** ((m + 1) // 2)
        basis = weights[:, None] * (_bessel_values(y * h) * signs)
        coefficients = np.empty((_TABLE_DEGREE + 1, cells))
        # Cell g p + r has the phase y_j 2gph + y_j (2r+1)h. By angle addition its
        # coefficients are F G_g, with F = [cos | sin] of the p fine phases
        # and G_g = [[cos, sin], [-sin, cos]] of group g's coarse phase times
        # the even and odd basis columns: about 2 sqrt(cells) phase rows in all.
        group = math.isqrt(cells - 1) + 1
        starts = range(0, cells, group)
        fine = np.multiply.outer((2.0 * np.arange(group) + 1.0) * h, y)
        f = np.concatenate([np.cos(fine), np.sin(fine)], axis=1)
        coarse = np.multiply.outer(2.0 * np.array(starts) * h, y)
        cos_coarse, sin_coarse = np.cos(coarse)[:, :, None], np.sin(coarse)[:, :, None]
        g = np.empty((2 * (j_max + 1), _TABLE_DEGREE + 1))
        top, bottom = g[: j_max + 1], g[j_max + 1 :]
        for start, c, s in zip(starts, cos_coarse, sin_coarse):
            np.multiply(basis[:, 0::2], c, out=top[:, 0::2])
            np.multiply(basis[:, 1::2], s, out=top[:, 1::2])
            np.multiply(basis[:, 0::2], -s, out=bottom[:, 0::2])
            np.multiply(basis[:, 1::2], c, out=bottom[:, 1::2])
            rows = min(group, cells - start)
            coefficients[:, start : start + rows] = (f[:rows] @ g).T
        coefficients.flags.writeable = False
        self.coefficients = coefficients

    def __call__(self, a) -> np.ndarray:
        """S at every element of `a` (any shape, each in [0, a_max]), as a C-ordered
        float array of its shape."""
        a = np.asarray(a, dtype=float)
        flat = a.reshape(-1)
        if flat.size and not (flat.min() >= 0.0 and flat.max() <= self.a_max):
            raise ValidationError(
                f"cosine table arguments must lie in [0, {self.a_max!r}], got "
                f"[{flat.min()!r}, {flat.max()!r}]"
            )
        out = np.empty(flat.shape)
        inv_h = 1.0 / self.half_width
        coefficients = self.coefficients
        t, t2, b1, b2, gathered = np.empty((5, min(_COSINE_BLOCK, flat.size)))
        cell = np.empty(t.size, dtype=np.intp)
        for start in range(0, flat.size, _COSINE_BLOCK):
            block = flat[start : start + _COSINE_BLOCK]
            size = block.size
            tb, t2b, b1b, b2b, gb, cb = (buf[:size] for buf in (t, t2, b1, b2, gathered, cell))
            # i = floor(a/(2h)) and t = a/h - (2i + 1), in [-1, 1]
            np.multiply(block, 0.5 * inv_h, out=t2b)
            np.floor(t2b, out=t2b)
            np.copyto(cb, t2b, casting="unsafe")
            t2b *= 2.0
            t2b += 1.0
            np.multiply(block, inv_h, out=tb)
            tb -= t2b
            np.add(tb, tb, out=t2b)
            # Clenshaw: b_m = c_m + 2t b_{m+1} - b_{m+2}, then S = c_0 + t b_1 - b_2.
            # Every cell index is in range, so "clip" only spares the range check.
            np.take(coefficients[_TABLE_DEGREE], cb, out=b1b, mode="clip")
            b2b.fill(0.0)
            for m in range(_TABLE_DEGREE - 1, 0, -1):
                np.multiply(t2b, b1b, out=gb)
                gb -= b2b
                np.take(coefficients[m], cb, out=b2b, mode="clip")
                b2b += gb
                b1b, b2b = b2b, b1b
            acc = out[start : start + size]
            np.multiply(tb, b1b, out=acc)
            acc -= b2b
            np.take(coefficients[0], cb, out=gb, mode="clip")
            acc += gb
        return out.reshape(a.shape)


def _table_half_width(delta_y: float, j_max: int) -> float:
    """The largest power of two below 1/y_J."""
    return math.ldexp(1.0, -math.frexp(j_max * delta_y)[1])


def cosine_table_bound(a_max: float, delta_y: float, j_max: int) -> float:
    """A closed-form bound on how far a `GaussianCosineTable` value at 0 <= a <= a_max
    lies from the exact series w_0 + 2 sum_j w_j cos(j delta_y a) with exact
    Gaussian weights. With u = 2^-53, s = 1 + 0.4 delta_y >= sum_j w'_j (the
    sum is at most w_0 plus the Gaussian's integral) and the weight moments
    sum_j w'_j y_j <= 0.8 + 0.5 delta_y and sum_j w'_j y_j^2 <= 1 + 0.6 delta_y
    (see `cosine_series_bounds`), it adds:
    - coefficient roundoff. Since sum_m eps_m |J_m(z)| <= 2 sqrt(e) - 1 < 2.3
      at z <= 1, the products F G_g over 2(J+1) terms, with the rounding of
      G_g's entries, err by at most 2.3 (2J+3) s u. The Bessel values and the
      basis entries, each within (2m + 6)u relative, add
      sum_m eps_m (2m + 6) (1/2)^m/m! s u < 18 s u. A rounded weight moves
      its term by at most (12 + 1.5 y_j^2) u w'_j, and the rounded cosines
      and sines of the coarse and fine phases turn it by at most 8 sqrt(2) u
      w'_j: 24 s u + 1.5 (1 + 0.6 delta_y) u in all. The phase rounds in y_j
      and in both products y_j 2gph and y_j (2r+1)h, whose sum is y_j c with
      c <= a_max + h, which moves term j by u y_j (2 a_max + h);
    - the Chebyshev truncation, 2 s (1/2)^16/16! * 1.04;
    - Clenshaw roundoff, 10 s u. Each step's three roundings reach the
      value through T_m(t), at most 1, and the b_m are at most
      sum_{k>=m} (k-m+1) |c_k| with |c_k| <= 2 s (1/2)^k/k!; the sum of
      their errors is below 8.5 s u, and t's own rounding, at most u/2 in
      the first cell, adds sum_m m^2 |c_m| u/2 < 1.3 s u.
    """
    s = 1.0 + 0.4 * delta_y
    h = _table_half_width(delta_y, j_max)
    coefficient = (
        (2.3 * (2 * j_max + 3) + 52.0) * s
        + 1.5 * (1.0 + 0.6 * delta_y)
        + (0.8 + 0.5 * delta_y) * (2.0 * a_max + h)
    )
    truncation = 2.08 * s * 0.5**16 / math.factorial(16)
    return coefficient * UNIT_ROUNDOFF + truncation


def amplification_rounds(success_amplitude: float, constants: Constants = DEFAULT_CONSTANTS) -> int:
    """ceil(c / asin(a)): the round count that amplifies amplitude a to order one."""
    if not 0.0 <= success_amplitude <= 1.0:
        raise ValidationError(f"success amplitude must lie in [0, 1], got {success_amplitude!r}")
    if success_amplitude == 0.0:
        raise AnnihilationError("cannot amplify a zero amplitude")
    return max(1, math.ceil(constants.amp_round_constant / math.asin(success_amplitude)))


