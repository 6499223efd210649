"""Closed-form projection moments, distortion constants, and their Monte Carlo
estimators over uniformly sampled orthonormal frames.

The central quantity is the average j-th power of the p-volume of the
projection of a unit p-cube onto a uniformly random p-plane in R^d. Closed
forms exist for j = 0, 1, 2, and the distortion constant is the ratio of the
first to the second moment, which collapses to a Gamma-function expression
that interpolates the binomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
from scipy.special import gammaln

from .geometry import Frame


@dataclass(frozen=True)
class MomentQuery:
    p: int
    d: int
    j: int

    def __post_init__(self):
        if not (0 <= self.p <= self.d):
            raise ValueError(f"need 0 <= p <= d, got p={self.p}, d={self.d}")
        if self.j < 0:
            raise ValueError("moment power must be nonnegative")


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0.0 or self.samples < 1:
            raise ValueError("invalid estimate")


def moment_closed_form(q: MomentQuery) -> float:
    """Exact projection moment for powers j = 0, 1, 2.

    j=0 is trivially 1, j=1 is the Gamma-ratio from the Crofton-type
    formula, and j=2 is 1 over the number of coordinate p-subsets.
    """
    p, d, j = q.p, q.d, q.j
    if j == 0:
        return 1.0
    if p == 0 or p == d:
        return 1.0
    if j == 1:
        lg = (gammaln((p + 1) / 2.0) + gammaln((d - p + 1) / 2.0)
              - gammaln(0.5) - gammaln((d + 1) / 2.0))
        return float(np.exp(lg))
    if j == 2:
        return 1.0 / comb(d, p)
    raise ValueError("no closed form implemented")


@cache
def distortion_constant(p: int, d: int) -> float:
    """Expected distortion Gamma(d/2+1) / (Gamma(p/2+1) Gamma((d-p)/2+1)).

    This is the generalized binomial coefficient "d/2 choose p/2" and equals
    the ratio of the first to the second projection moment; that equality is
    verified numerically in the test suite rather than assumed.
    """
    if not (0 <= p <= d):
        raise ValueError(f"need 0 <= p <= d, got p={p}, d={d}")
    lg = gammaln(d / 2.0 + 1.0) - gammaln(p / 2.0 + 1.0) - gammaln((d - p) / 2.0 + 1.0)
    return float(np.exp(lg))


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    return int(np.prod(np.arange(n, 0, -2, dtype=object)))


def distortion_double_factorial(p: int, d: int) -> float:
    """The same constant through its double-factorial branches.

    d!!/(p!!(d-p)!!) times 2/pi when d is even and p is odd, and the plain
    double-factorial ratio otherwise. Kept separate from the Gamma route so
    the two can cross-check each other.
    """
    if not (0 <= p <= d):
        raise ValueError(f"need 0 <= p <= d, got p={p}, d={d}")
    ratio = Fraction(_double_factorial(d), _double_factorial(p) * _double_factorial(d - p))
    if d % 2 == 0 and p % 2 == 1:
        return float(ratio) * 2.0 / np.pi
    return float(ratio)


def distortion_exact_string(p: int, d: int) -> str:
    """Symbolic form of the constant: a rational, or a rational multiple of 1/pi."""
    ratio = Fraction(_double_factorial(d), _double_factorial(p) * _double_factorial(d - p))
    if d % 2 == 0 and p % 2 == 1:
        num, den = (2 * ratio).as_integer_ratio()
        return f"{num}/({den}*pi)" if den != 1 else f"{num}/pi"
    if p % 2 == 0 and d % 2 == 0:
        return str(comb(d // 2, p // 2))
    num, den = ratio.as_integer_ratio()
    return f"{num}/{den}" if den != 1 else str(num)


def distortion_table(d_max: int) -> np.ndarray:
    """Matrix of distortion constants for 1 <= p <= d <= d_max; NaN below the diagonal.

    Rows are indexed by p and columns by d, both starting at 1. Entries with
    p and d both even are binomial coefficients, so even rows and columns
    reproduce the Pascal triangle.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    table = np.full((d_max, d_max), np.nan)
    for d in range(1, d_max + 1):
        for p in range(1, d + 1):
            table[p - 1, d - 1] = distortion_constant(p, d)
    return table


def _haar_columns(g) -> np.ndarray:
    # Q of the QR factorization of a Gaussian (d, p) matrix, or of each in a
    # stack, with the sign of the R diagonal fixed: the standard construction
    # for the invariant measure
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def sample_stiefel(p: int, d: int, rng) -> Frame:
    """Uniformly random orthonormal p-frame in R^d (_haar_columns)."""
    if not (0 <= p <= d):
        raise ValueError(f"need 0 <= p <= d, got p={p}, d={d}")
    if p == 0:
        return Frame(np.zeros((0, d)))
    return Frame(_haar_columns(rng.standard_normal((d, p))).T)


def moment_monte_carlo(q: MomentQuery, samples: int, seed: int) -> MomentEstimate:
    """Monte Carlo projection moment: mean of |det(F L0^T)|^j over random frames.

    L0 is the frame of the first p coordinate vectors. Sampling is batched;
    the determinants of all sample frames restricted to the leading p
    columns are exactly the projection volumes onto span(L0).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    p, d, j = q.p, q.d, q.j
    if p == 0 or p == d:
        # projection is the identity on the spanned cube
        return MomentEstimate(1.0, 0.0, samples, seed)
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    batch = 20000
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        qmat = _haar_columns(rng.standard_normal((m, d, p)))
        dets = np.abs(np.linalg.det(qmat[:, :p, :]))
        vals[done:done + m] = dets ** j
        done += m
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples))
    return MomentEstimate(mean, stderr, samples, seed)
