"""Properties of the complex log-gamma on the strips the contour integrator
uses: Re z within 8 of the origin and away from the integers, |Im z| up to 40."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mbeval.gammafn import clgamma  # noqa: E402

RE_MAX, IM_MAX = 8.0, 40.0
POLE_GAP = 0.01

# away from the integers, where Gamma(z) or Gamma(1-z) has its poles
real_parts = st.floats(-RE_MAX, RE_MAX).filter(lambda x: abs(x - round(x)) > POLE_GAP)
imag_parts = st.floats(-IM_MAX, IM_MAX)
points = st.builds(complex, real_parts, imag_parts)


def _strip_points(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-RE_MAX, RE_MAX, n)
    x[np.abs(x - np.round(x)) <= POLE_GAP] += 2 * POLE_GAP
    return x + 1j * rng.uniform(-IM_MAX, IM_MAX, n)


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


def _off_by_2pi_i(d):
    """Distance of d from the nearest integer multiple of 2*pi*i."""
    d = np.asarray(d)
    return np.abs(d - 2j * math.pi * np.round(d.imag / (2 * math.pi)))


# contour quadrature evaluates many panel blocks in one clgamma call and
# relies on every element getting the bits it gets alone
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
       extra=st.lists(points, max_size=8))
def test_clgamma_of_an_array_equals_clgamma_of_each_element(n, seed, extra):
    z = np.concatenate([_strip_points(n, seed), np.array(extra, dtype=complex)])
    whole = clgamma(z)
    one_by_one = np.array([clgamma(v) for v in z])
    assert np.array_equal(_bits(whole), _bits(one_by_one))
    # the open-grid shapes of the contour chunks: same bits in any shape
    assert np.array_equal(_bits(clgamma(z.reshape(-1, 1))), _bits(whole.reshape(-1, 1)))


@settings(max_examples=200, deadline=None)
@given(z=points)
def test_clgamma_recurrence(z):
    # log Gamma(z+1) = log Gamma(z) + log z, modulo 2*pi*i
    assert _off_by_2pi_i(clgamma(z + 1) - clgamma(z) - np.log(z)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(z=points)
def test_clgamma_reflection(z):
    # Gamma(z) Gamma(1-z) = pi / sin(pi z)
    lhs = clgamma(z) + clgamma(1 - z)
    rhs = math.log(math.pi) - np.log(np.sin(np.pi * z))
    assert _off_by_2pi_i(lhs - rhs) <= 1e-12
