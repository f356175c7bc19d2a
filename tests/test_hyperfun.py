import math
import random

import numpy as np
import pytest

from mbeval import hyperfun as hf
from mbeval import quadrature as qd
from mbeval.errors import DivergentArgument, DomainError, LowerPole, OutsideROC
from mbeval.gammafn import EULER_GAMMA, clgamma, gammaln_signed, polygamma


# ---------------------------------------------------------------------------
# gamma kernels


def test_clgamma_modulus_identity():
    # |Gamma(1+ib)|^2 = pi b / sinh(pi b)
    for b in (0.1, 1.0, 5.0, 30.0):
        g = abs(np.exp(clgamma(1.0 + 1j * b)))
        exact = math.sqrt(math.pi * b / math.sinh(math.pi * b))
        assert abs(g - exact) / exact < 5e-13


def test_clgamma_recurrence_sweep():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(500):
        z = complex(rng.uniform(-30, 30), rng.uniform(0.5, 60))
        ratio = np.exp(clgamma(z + 1) - clgamma(z))
        worst = max(worst, abs(ratio - z) / abs(z))
    assert worst < 1e-12


def test_gammaln_signed_reflection():
    lg, sg = gammaln_signed(-1.5)
    # Gamma(-3/2) = 4 sqrt(pi) / 3
    assert sg == 1
    assert math.exp(lg) == pytest.approx(4 * math.sqrt(math.pi) / 3, rel=1e-14)
    lg, sg = gammaln_signed(-0.5)
    assert sg == -1
    with pytest.raises(ValueError):
        gammaln_signed(-2.0)


def test_polygamma_known_values():
    assert polygamma(0, 1.0) == pytest.approx(-0.5772156649015329, abs=1e-14)
    assert polygamma(1, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert polygamma(2, 1.0) == pytest.approx(-2.0 * hf.ZETA3, rel=1e-13)
    # recurrence psi'(x+1) = psi'(x) - 1/x^2
    for x in (0.25, 1.75, 3.0):
        assert polygamma(1, x + 1) == pytest.approx(
            polygamma(1, x) - 1.0 / x ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# pFq


def test_pfq_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    val = hf.pfq([1, 1], [2], 0.5, 1e-14)
    assert val == pytest.approx(-math.log(0.5) / 0.5, rel=1e-12)


def test_pfq_exponential():
    assert hf.pfq([], [], 1.0, 1e-14) == pytest.approx(math.e, rel=1e-13)


def test_pfq_divergent_argument():
    with pytest.raises(DivergentArgument):
        hf.pfq([1, 1], [2], 2.0)


def test_pfq_lower_pole():
    with pytest.raises(LowerPole):
        hf.pfq([1, 1], [-2], 0.5)


def test_pfq_recurrence_matches_pochhammer_terms():
    upper, lower, z = [0.5, 1.25, -0.75], [1.5, 2.25], 0.3
    term = 1.0
    for m in range(50):
        direct = hf.pfq_term(upper, lower, z, m)
        assert direct == pytest.approx(term, rel=1e-13)
        ratio = z / (m + 1)
        for a in upper:
            ratio *= a + m
        for b in lower:
            ratio /= b + m
        term *= ratio


def test_pfq_regularized_handles_lower_pole():
    # 1F1(1; -1; x) regularized stays finite; check against the direct sum
    val = hf.pfq([1.0], [-1.0], 0.3, 1e-13, regularized=True)
    direct = sum(hf.pochhammer(1.0, m) * 0.3 ** m / math.factorial(m)
                 / (math.gamma(-1.0 + m) if m >= 2 else math.inf)
                 for m in range(60))
    assert val == pytest.approx(direct, rel=1e-11)


def test_f21_at_minus1_terminating():
    # B2(2) inner value: 2F1(1/2, -1; 3/2; -1) = 1 + 1/3
    assert hf.f21_at_minus1(0.5, -1.0, 1.5, 1e-14) == pytest.approx(4 / 3, rel=1e-12)


def test_f21_at_minus1_a_zero():
    assert hf.f21_at_minus1(0.0, 0.7, 1.3, 1e-14) == 1.0


# ---------------------------------------------------------------------------
# Appell F1 / Lauricella F_C / KdF


def test_appell_f1_reduces_to_2f1_at_y0():
    lhs = hf.appell_f1(1.0, 0.5, 7.0, 2.0, 0.3, 0.0, 1e-13)
    rhs = hf.pfq([1.0, 0.5], [2.0], 0.3, 1e-14)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_appell_f1_log_closed_form():
    # F1(1;1,1;2;x,y) = ln((1-y)/(1-x))/(x-y); brute double sum frozen
    x, y = 0.2, 0.4
    # term = (1)_{m+n} (1)_m (1)_n / ((2)_{m+n} m! n!) x^m y^n = x^m y^n/(m+n+1)
    brute = sum(x ** m * y ** n / (m + n + 1)
                for m in range(200) for n in range(200 - m))
    closed = math.log((1 - y) / (1 - x)) / (x - y)
    assert brute == pytest.approx(closed, rel=1e-12)
    assert hf.appell_f1(1, 1, 1, 2, x, y, 1e-13) == pytest.approx(closed, rel=1e-11)


def test_appell_f1_diagonal_reduction():
    lhs = hf.appell_f1(1.0, 1 / 3, 2 / 3, 2.0, 0.25, 0.25, 1e-13)
    rhs = hf.pfq([1.0, 1.0], [2.0], 0.25, 1e-14)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_appell_f1_outside_roc():
    with pytest.raises(OutsideROC):
        hf.appell_f1(1.0, 0.5, -1.0, 2.0, 2.0, -2.0)


def test_lauricella_binomial_reduction():
    # N=1: F_C(a, b; c; x) is 2F1(a,b;c;x); with b=c it is (1-x)^(-a)
    val = hf.lauricella_fc(0.5, 1.0, [1.0], [-0.25], 1e-14)
    assert val == pytest.approx((1.25) ** -0.5, rel=1e-12)
    assert val == pytest.approx(0.894427191, abs=1e-9)


def test_lauricella_empty_and_zero():
    assert hf.lauricella_fc(0.5, 1.0, [], [], 1e-14) == 1.0
    assert hf.lauricella_fc(0.5, 1.0, [1.0, 2.0], [0.0, 0.0], 1e-14) == 1.0


def test_lauricella_outside_roc():
    with pytest.raises(OutsideROC):
        hf.lauricella_fc(0.5, 1.0, [1.0, 1.0], [0.5, 0.3])


def test_kdf_single_row_reduction():
    lhs = hf.kdf_2111(1.0, 2.0, 0.5, 0.7, 3.0, 1.5, 1.1, 0.2, 0.0, 1e-13)
    rhs = hf.pfq([1.0, 2.0, 0.5], [3.0, 1.5], 0.2, 1e-14)
    assert lhs == pytest.approx(rhs, rel=1e-11)
    assert hf.kdf_2111(1.0, 2.0, 0.5, 0.7, 3.0, 1.5, 1.1, 0.0, 0.0) == 1.0


def _kdf_box_params(s):
    return (-1 - s) / 2, -s / 2, 0.5, 0.5, (1 - s) / 2, 0.5, 0.5


def test_kdf_box_pattern_vs_brute_sum():
    # the two-fold series behind the three-cube box integral, scaled inside
    # its convergence region; generic s (the joint lower parameter (1-s)/2
    # hits zero at s=1, where the series form is resonant)
    s = 1.0 / 3.0
    a1, a2, b1, b2, c1, d1, e1 = _kdf_box_params(s)
    x = y = -1.0 / 16.0
    brute = 0.0
    # ratio form keeps the Pochhammer products in range
    for m in range(50):
        for n in range(50 - m):
            term = 1.0
            for i in range(m + n):
                term *= (a1 + i) * (a2 + i) / (c1 + i)
            for i in range(m):
                term *= (b1 + i) / (d1 + i) / (i + 1)
            for i in range(n):
                term *= (b2 + i) / (e1 + i) / (i + 1)
            brute += term * x ** m * y ** n
    val = hf.kdf_2111(a1, a2, b1, b2, c1, d1, e1, x, y, 1e-13)
    assert val == pytest.approx(brute, rel=1e-10)


def test_kdf_box_pattern_degenerate_at_integer_s():
    with pytest.raises(LowerPole):
        hf.kdf_2111(*_kdf_box_params(1.0), -1.0 / 16.0, -1.0 / 16.0)


def test_kdf_refuses_physical_point():
    with pytest.raises(OutsideROC):
        hf.kdf_2111(-1.0, -0.5, 0.5, 0.5, 0.0, 0.5, 0.5, -1.0, -1.0)


# ---------------------------------------------------------------------------
# special values


def test_zeta3_against_direct_sum_with_tail_bound():
    direct = math.fsum(1.0 / n ** 3 for n in range(1, 200000))
    # integral tail bound: sum_{n>N} n^-3 in (1/(2(N+1)^2), 1/(2 N^2))
    n_last = 199999
    lo = direct + 0.5 / (n_last + 1) ** 2
    hi = direct + 0.5 / n_last ** 2
    ulp = 3e-16
    assert lo - ulp <= hf.ZETA3 <= hi + ulp
    assert hf.ZETA3 == pytest.approx(1.202056903, abs=1e-9)


def test_elliptic_k_values():
    assert hf.ellipk(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    # K(1/2) known via AGM self-consistency: compare against quadrature
    q = qd.quad_1d(lambda t: 1.0 / np.sqrt(1 - 0.5 * np.sin(t) ** 2),
                   (0.0, math.pi / 2), 1e-12)
    assert hf.ellipk(0.5) == pytest.approx(q.value, rel=1e-11)
    with pytest.raises(DomainError):
        hf.ellipk(1.0)


def test_besselk0_against_cosh_integral():
    for t in (0.5, 1.0, 2.0, 5.0, 12.0):
        q = qd.quad_1d(lambda u: np.exp(-t * np.cosh(u)),
                       (0.0, math.acosh(60.0 / t) if t < 60 else 3.0), 1e-14)
        assert hf.besselk0(t) == pytest.approx(q.value, rel=2e-12)
    assert hf.besselk0(1.0) == pytest.approx(0.421024438, abs=1e-9)


def _besselk0_series_ref(t):
    # the scalar ascending series that besselk0 used for t <= 2
    x2 = t * t / 4.0
    i0, term, k0sum, h = 1.0, 1.0, 0.0, 0.0
    for j in range(1, 40):
        term *= x2 / (j * j)
        i0 += term
        h += 1.0 / j
        k0sum += term * h
        if term < 1e-19:
            break
    return -(math.log(t / 2.0) + EULER_GAMMA) * i0 + k0sum


def test_besselk0_vec_small_t_matches_scalar_loop_bit_for_bit():
    # the vectorised series against the scalar loop, on a geometric and a
    # uniform grid of 40k points in (0, 2] plus random points, evaluated in
    # one shuffled call together with points of the quadrature range
    t = np.concatenate([np.geomspace(1e-12, 2.0, 20000),
                        np.linspace(0.0, 2.0, 20001)[1:],
                        np.random.default_rng(11).uniform(0.0, 2.0, 2000)])
    mixed = np.append(t, [2.5, 5.0, 40.0, 719.0, 721.0])
    perm = np.random.default_rng(12).permutation(len(mixed))
    got = np.empty_like(mixed)
    got[perm] = hf.besselk0_vec(mixed[perm])
    want = np.array([_besselk0_series_ref(x) for x in t])
    assert np.array_equal(got[:len(t)].view(np.int64), want.view(np.int64))
    assert [hf.besselk0(x) for x in mixed[::97]] == list(got[::97])
    assert got[-1] == 0.0
    with pytest.raises(DomainError):
        hf.besselk0_vec(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        hf.besselk0(-1.0)


def test_dilog_reflection_identity_sweep():
    rng = random.Random(5)
    for _ in range(10):
        z = rng.uniform(0.05, 0.95)
        lhs = hf.dilog(z) + hf.dilog(1.0 - z)
        rhs = math.pi ** 2 / 6 - math.log(z) * math.log(1.0 - z)
        assert abs(lhs - rhs) < 1e-12


def test_dilog_inversion():
    z = 3.0 + 0.5j
    lhs = hf.dilog(z) + hf.dilog(1.0 / z)
    rhs = -math.pi ** 2 / 6 - 0.5 * np.log(complex(-3.0, -0.5)) ** 2
    assert abs(lhs - rhs) < 1e-12


def test_erf_values_and_complement():
    # series region vs the integral
    q = qd.quad_1d(lambda t: np.exp(-t * t), (0.0, 1.0), 1e-14)
    assert hf.erf(1.0) == pytest.approx(2 / math.sqrt(math.pi) * q.value, rel=1e-13)
    q = qd.quad_1d(lambda t: np.exp(-t * t), (0.0, 4.0), 1e-15)
    assert hf.erf(4.0) == pytest.approx(2 / math.sqrt(math.pi) * q.value, rel=1e-12)
    assert hf.erf(-1.0) == -hf.erf(1.0)


def test_besselj_against_integral_representation():
    # J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
    for order in (0, 1, 3, 7):
        for x in (0.7, 5.0, 11.9, 12.1, 25.0):
            q = qd.quad_1d(lambda t: np.cos(order * t - x * np.sin(t)),
                           (0.0, math.pi), 1e-13)
            assert hf.besselj(order, x) == pytest.approx(
                q.value / math.pi, abs=5e-12)


def test_bessel_closed_laplace_transform():
    # int_0^inf e^{-2k} J0(k) dk = 1/sqrt(5)
    q = qd.quad_1d(lambda k: np.exp(-2 * k)
                   * np.array([hf.besselj(0, t) for t in np.atleast_1d(k)]),
                   (0.0, 40.0), 1e-12)
    assert q.value == pytest.approx(1 / math.sqrt(5), abs=1e-10)


def test_reduction_identities_random_sweep():
    # each reduction identity over a seeded 20-point parameter sweep
    rng = random.Random(12)
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        b1 = rng.uniform(0.2, 2.0)
        b2 = rng.uniform(0.2, 2.0)
        c = rng.uniform(1.0, 3.0)
        x = rng.uniform(-0.6, 0.6)
        y = rng.uniform(-0.6, 0.6)
        # F1 y=0 row reduction
        assert abs(hf.appell_f1(a, b1, b2, c, x, 0.0, 1e-13)
                   - hf.pfq([a, b1], [c], x, 1e-14)) < 1e-10
        # F1 diagonal reduction
        assert abs(hf.appell_f1(a, b1, b2, c, x, x, 1e-13)
                   - hf.pfq([a, b1 + b2], [c], x, 1e-14)) < 1e-10
        # KdF single-row reduction
        assert abs(hf.kdf_2111(a, b1, b2, 0.9, c, 1.3, 1.7, x * 0.5, 0.0, 1e-13)
                   - hf.pfq([a, b1, b2], [c, 1.3], x * 0.5, 1e-14)) < 1e-10
        # F_C N=1 binomial case (b=c): (1-x)^-a
        xx = -abs(x) * 0.9
        assert abs(hf.lauricella_fc(a, b1, [b1], [xx], 1e-14)
                   - (1.0 - xx) ** (-a)) < 1e-10


def test_quad_polynomial_through_public_interface():
    r = qd.quad_1d(lambda x: x ** 5, (0.0, 1.0), 1e-13)
    assert abs(r.value - 1.0 / 6.0) < 1e-14
