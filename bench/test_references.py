"""The benchmark's reference code against constants from the literature.

    python3 -m pytest -q bench/test_references.py

No expected value here comes from mbeval.
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as rf  # noqa: E402
import workloads as wl  # noqa: E402

TOL = mp.mpf(10) ** -15


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(rf.DPS):
        yield


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1, abs(b))


def test_box_two_at_one():
    # B_2(1) = (sqrt 2 + ln(1 + sqrt 2)) / 3
    assert close(rf.box_b(2, 1), (mp.sqrt(2) + mp.log(1 + mp.sqrt(2))) / 3)


def test_delta_two_and_robbins_constant():
    # Delta_2(1) and Robbins' Delta_3(1), as printed to 14 digits
    assert close(rf.delta(2, 1), mp.mpf("0.52140543316472"), mp.mpf("1e-14"))
    assert close(rf.delta(3, 1), mp.mpf("0.66170718226717"), mp.mpf("1e-14"))


def test_one_dimensional_moments_at_both_ends():
    # B_1(s) = 1/(s+1) and Delta_1(s) = 2/((s+1)(s+2)) for -1 < s < 2
    for s in (Fraction(-9, 10), Fraction(-1, 10), Fraction(1, 10), Fraction(19, 10)):
        x = mp.mpf(s.numerator) / s.denominator
        assert close(rf.box_b(1, s), 1 / (x + 1))
        assert close(rf.delta(1, s), 2 / ((x + 1) * (x + 2)))


def test_jellium_three():
    # J_3 = 2 (1 - B_3(-1)) = pi/2 + 2 - 6 atanh(1/sqrt 3)
    assert close(2 * (1 - rf.box_b(3, -1)), rf.jellium_three())


def test_ising_c41():
    # C_{4,1} = 7 zeta(3) / 12
    assert close(rf.ising_c(4, 1), 7 * mp.zeta(3) / 12)


def test_h_of_a():
    # H(a) = H_1(a, a) = pi^2 / (4a)
    assert close(rf.h1(Fraction(3, 2), Fraction(3, 2)), mp.pi ** 2 / 6)


def test_exact_even_moments():
    assert rf.box_even_moment(3, 1) == 1
    assert rf.box_even_moment(2, 2) == Fraction(2, 5) + Fraction(2, 9)
    assert rf.delta_two(4) == Fraction(2, 3)


def test_ruby_laplace_transforms():
    # int e^{-kd} J0(kR) dk = 1/sqrt(d^2+R^2), e.g. 1/sqrt 5 at d=2, R=1
    assert close(rf.ruby_single(0, 2, 0, 1), 1 / mp.sqrt(5))
    f = lambda k: mp.exp(-2 * k) * mp.besselj(1, 3 * k / 2)
    assert close(rf.ruby_single(0, 2, 1, Fraction(3, 2)), mp.quad(f, [0, mp.inf]))


def test_cache_matches_recomputation():
    values = json.loads(rf.CACHE_PATH.read_text())["values"]
    assert set(values) == wl.reference_keys()
    rng = random.Random(0)
    for key in rng.sample(sorted(k for k in values if not k.startswith("param")), 4):
        assert close(mp.mpf(values[key]), rf.compute(key), mp.mpf("1e-18")), key
