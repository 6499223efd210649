from fractions import Fraction
from math import comb, pi, sqrt

import numpy as np
import pytest

from voroscape.moments import (MomentQuery, distortion_constant,
                               distortion_double_factorial,
                               distortion_exact_string, distortion_table,
                               moment_closed_form, moment_monte_carlo,
                               sample_stiefel)


def moment(p, d, j):
    return moment_closed_form(MomentQuery(p, d, j))


def test_second_moment_is_inverse_binomial():
    assert moment(1, 2, 2) == pytest.approx(0.5, rel=1e-15)
    assert moment(2, 5, 2) == pytest.approx(0.1, rel=1e-15)
    for d in range(1, 10):
        for p in range(d + 1):
            assert moment(p, d, 2) == pytest.approx(1.0 / comb(d, p), rel=1e-13)


def test_first_moment_examples():
    assert moment(1, 2, 1) == pytest.approx(2 / pi, rel=1e-14)
    assert moment(0, 5, 1) == 1.0
    assert moment(3, 3, 2) == 1.0


def test_zeroth_moment_is_one():
    for d in range(7):
        for p in range(d + 1):
            assert moment(p, d, 0) == 1.0


def test_no_closed_form_above_two():
    with pytest.raises(ValueError, match="no closed form implemented"):
        moment(1, 3, 3)


def test_moment_inequalities():
    # projections shrink: M1 <= 1; power mean: M2 <= M1 on a [0,1] variable
    for d in range(1, 13):
        for p in range(d + 1):
            m1, m2 = moment(p, d, 1), moment(p, d, 2)
            assert m1 <= 1.0 + 1e-15
            assert m2 <= m1 + 1e-15


def test_distortion_examples():
    assert distortion_constant(1, 2) == pytest.approx(4 / pi, rel=1e-14)
    assert distortion_constant(2, 3) == pytest.approx(1.5, rel=1e-14)
    assert distortion_constant(3, 10) == pytest.approx(512 / (21 * pi), rel=1e-14)
    for d in range(13):
        assert distortion_constant(0, d) == pytest.approx(1.0, rel=1e-14)
        assert distortion_constant(d, d) == pytest.approx(1.0, rel=1e-14)


def test_distortion_equals_moment_ratio():
    # the constant is defined as M1/M2; verified numerically, not assumed
    for d in range(13):
        for p in range(d + 1):
            ratio = moment(p, d, 1) / moment(p, d, 2)
            assert distortion_constant(p, d) == pytest.approx(ratio, rel=1e-12)


def test_distortion_symmetry():
    for d in range(13):
        for p in range(d + 1):
            a = distortion_constant(p, d)
            b = distortion_constant(d - p, d)
            assert abs(a - b) <= 1e-12 * a


def test_distortion_double_factorial_branch():
    for d in range(13):
        for p in range(d + 1):
            val = distortion_double_factorial(p, d)
            assert distortion_constant(p, d) == pytest.approx(val, rel=1e-12)


def test_even_even_pascal():
    for d2 in range(1, 7):
        for p2 in range(d2 + 1):
            assert distortion_constant(2 * p2, 2 * d2) == pytest.approx(
                comb(d2, p2), rel=1e-12)


def test_exact_strings():
    assert distortion_exact_string(1, 2) == "4/pi"
    assert distortion_exact_string(2, 4) == "2"
    assert distortion_exact_string(1, 5) == "15/8"
    assert distortion_exact_string(3, 10) == "512/(21*pi)"


def test_exact_strings_evaluate():
    for d in range(1, 13):
        for p in range(d + 1):
            s = distortion_exact_string(p, d)
            if s.endswith("/pi"):
                val = int(s[:-3]) / pi
            elif s.endswith("*pi)"):
                num, den = s.split("/")
                val = int(num) / (int(den[1:-4]) * pi)
            else:
                val = float(Fraction(s))
            assert distortion_constant(p, d) == pytest.approx(val, rel=1e-12)


def test_distortion_table_shape_and_entries():
    t = distortion_table(10)
    assert t.shape == (10, 10)
    assert t[0, 1] == pytest.approx(4 / pi, rel=1e-12)   # (p=1, d=2)
    assert t[1, 9] == pytest.approx(5.0, rel=1e-12)      # (p=2, d=10)
    assert t[3, 7] == pytest.approx(6.0, rel=1e-12)      # (p=4, d=8)
    assert np.all(np.isnan(t[np.tril_indices(10, -1)]))  # p > d is empty
    assert np.allclose(np.diag(t), 1.0)


def test_distortion_large_d_asymptotics():
    # D(1,d)*sqrt(pi/(2d)) -> 1; within 2% by d=200
    val = distortion_constant(1, 200) * sqrt(pi / (2 * 200))
    assert abs(val - 1.0) < 0.02
    seq = [distortion_constant(1, d) * sqrt(pi / (2 * d)) for d in (50, 100, 200)]
    assert seq[0] > seq[1] > seq[2] > 1.0  # approaches 1 from above


# ---------------- Stiefel sampling ----------------

def test_stiefel_rows_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.integers(0, 5))
        d = int(rng.integers(max(p, 1), 7))
        f = sample_stiefel(p, d, rng)
        assert f.rows.shape == (p, d)
        assert np.allclose(f.rows @ f.rows.T, np.eye(p), atol=1e-12)


def test_stiefel_direction_cos_squared():
    rng = np.random.default_rng(6)
    c2 = np.array([sample_stiefel(1, 2, rng).rows[0, 0] ** 2
                   for _ in range(100000)])
    se = c2.std(ddof=1) / np.sqrt(len(c2))
    assert abs(c2.mean() - 0.5) < 3 * se


def test_stiefel_full_rank_det_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = sample_stiefel(3, 3, rng).rows
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12


def test_stiefel_rotation_invariance():
    # rotating a Haar sample leaves the projection-volume law unchanged
    rng = np.random.default_rng(8)
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = np.array([np.linalg.det(sample_stiefel(2, 4, rng).rows[:, :2]) ** 2
                  for _ in range(20000)])
    b = np.array([np.linalg.det((sample_stiefel(2, 4, rng).rows @ rot)[:, :2]) ** 2
                  for _ in range(20000)])
    se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) < 4 * se


# ---------------- Monte Carlo ----------------

def test_monte_carlo_examples():
    est = moment_monte_carlo(MomentQuery(1, 3, 2), 100000, seed=0)
    assert abs(est.mean - 1 / 3) < 3 * est.stderr
    est = moment_monte_carlo(MomentQuery(2, 4, 1), 100000, seed=1)
    assert abs(est.mean - moment(2, 4, 1)) < 3 * est.stderr


def test_monte_carlo_full_dim_exact():
    est = moment_monte_carlo(MomentQuery(3, 3, 2), 1000, seed=2)
    assert est.mean == 1.0 and est.stderr == 0.0
    est = moment_monte_carlo(MomentQuery(0, 4, 1), 1000, seed=2)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_monte_carlo_deterministic():
    a = moment_monte_carlo(MomentQuery(2, 5, 1), 5000, seed=42)
    b = moment_monte_carlo(MomentQuery(2, 5, 1), 5000, seed=42)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_monte_carlo_sample_floor():
    with pytest.raises(ValueError):
        moment_monte_carlo(MomentQuery(1, 2, 1), 50, seed=0)


def test_query_validation():
    with pytest.raises(ValueError):
        MomentQuery(3, 2, 1)
    with pytest.raises(ValueError):
        MomentQuery(-1, 2, 1)
