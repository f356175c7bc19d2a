import math

import numpy as np
import pytest

from mbeval import quadrature as qd
from mbeval.errors import PoleProximity
from mbeval.hyperfun import gauss_legendre


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(10)
    for k in range(0, 20, 2):
        exact = 2.0 / (k + 1)
        assert abs(float(np.dot(w, x ** k)) - exact) < 1e-14


def test_quad_semi_infinite_exponential():
    r = qd.quad_1d(lambda t: np.exp(-t), (0.0, math.inf), 1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.abs_err_est <= 1e-12


def test_quad_endpoint_singularity():
    r = qd.quad_1d(lambda x: 1.0 / np.sqrt(x), (0.0, 1.0), 1e-9)
    assert r.value == pytest.approx(2.0, abs=5e-9)


def test_quad_box_kernel():
    # int_0^{pi/4} ((1+sec^2)^{s/2+1} - 1) dt at s=2 equals 10/3 exactly
    s = 2.0
    r = qd.quad_1d(lambda t: (1 + 1 / np.cos(t) ** 2) ** (s / 2 + 1) - 1,
                   (0.0, math.pi / 4), 1e-12)
    assert r.value == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_bessel_moment_n1_closed_form():
    # C_{1,k} = sqrt(pi) 2^(1-k) Gamma((k+1)/2) / Gamma(k/2+1)
    # and C_{n,k} = 2^(n-k+1)/(n! k!) c_{n,k}
    for k in range(6):
        r = qd.bessel_moment(1, k)
        c1k = 2.0 ** (1 - k + 1) / math.factorial(k) * r.value
        closed = math.sqrt(math.pi) * 2.0 ** (1 - k) \
            * math.gamma((k + 1) / 2) / math.gamma(k / 2 + 1)
        assert c1k == pytest.approx(closed, abs=1e-9)


def test_bessel_moment_c21():
    r = qd.bessel_moment(2, 1)
    assert r.value == pytest.approx(0.5, abs=1e-11)


def test_bessel_moment_c41_zeta3():
    r = qd.bessel_moment(4, 1)
    c41 = 2.0 ** 4 / (math.factorial(4) * 1) * r.value
    zeta3 = 1.2020569031595943
    assert c41 == pytest.approx(7 * zeta3 / 12, abs=1e-11)


def test_cube_b_second_moment_all_dims():
    for n in range(1, 7):
        r = qd.cube_integral(n, "B", 2.0, 2e-6)
        assert r.value == pytest.approx(n / 3.0, abs=6e-6)


def test_cube_delta_basics():
    r = qd.cube_integral(1, "Delta", 1.0, 1e-6)
    assert r.value == pytest.approx(1.0 / 3.0, abs=3e-6)


def test_cube_pole_proximity():
    with pytest.raises(PoleProximity):
        qd.cube_integral(2, "B", -1.97, 1e-6)


def test_cube_deterministic_under_seed():
    a = qd.cube_integral(3, "B", 1.0, 1e-5, seed=0)
    b = qd.cube_integral(3, "B", 1.0, 1e-5, seed=0)
    c = qd.cube_integral(3, "B", 1.0, 1e-5, seed=1)
    assert a.value == b.value
    assert a.value != c.value
    assert abs(a.value - c.value) < 1e-5


def test_sobol_points_stratification():
    pts = qd.sobol_points(256, 5)
    assert pts.shape == (256, 5)
    assert np.all(pts > 0) and np.all(pts < 1)
    # first 2^k points balance each halving of every axis
    assert np.all(np.abs(np.mean(pts < 0.5, axis=0) - 0.5) < 1e-12)


# ---------------------------------------------------------------------------
# The point generator against the mask loop it replaced, kept as a reference


def _direction_numbers_ref(dim):
    v = np.zeros(31, dtype=np.int64)
    if dim == 1:
        for j in range(31):
            v[j] = 1 << (30 - j)
        return v
    s, a, m = qd._JOE_KUO[dim]
    for j in range(s):
        v[j] = m[j] << (30 - j)
    for j in range(s, 31):
        v[j] = v[j - s] ^ (v[j - s] >> s)
        for k in range(1, s):
            if (a >> (s - 1 - k)) & 1:
                v[j] ^= v[j - k]
    return v


def _sobol_points_ref(n, dim, shift=None):
    vs = np.stack([_direction_numbers_ref(d + 1) for d in range(dim)])
    idx = np.arange(n, dtype=np.int64)
    gray = idx ^ (idx >> 1)
    out = np.zeros((n, dim), dtype=np.int64)
    for b in range(max(n - 1, 1).bit_length()):
        mask = ((gray >> b) & 1).astype(bool)
        if mask.any():
            out[mask] ^= vs[None, :, b][0]
    if shift is not None:
        out ^= shift[None, :]
    return (out + 0.5) / float(1 << 31)


def _cube_integral_ref(n_dims, kernel, s, tol, seed=0):
    dim = n_dims if kernel == "B" else 2 * n_dims
    shifts = np.random.default_rng(seed).integers(0, 1 << 31, size=(8, dim), dtype=np.int64)
    n, evals = 1 << 13, 0
    while True:
        means = []
        for shift in shifts:
            pts = _sobol_points_ref(n, dim, shift)
            d = pts if kernel == "B" else pts[:, :n_dims] - pts[:, n_dims:]
            means.append(float(np.mean(np.sum(d * d, axis=1) ** (s / 2.0))))
            evals += n
        value = float(np.mean(means))
        err = float(np.std(means, ddof=1) / math.sqrt(8)) * 1.5
        if err <= tol or n >= 1 << 19:
            break
        n *= 2
    return value, max(err, 1e-9), evals, {"points_per_shift": n, "shifts": 8}


def test_sobol_points_bit_identical_to_mask_loop():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 255, 256, 8193, 65536):
        for dim in range(1, 11):
            shift = rng.integers(0, 1 << 31, size=dim, dtype=np.int64)
            for sh in (None, shift):
                got = qd.sobol_points(n, dim, sh)
                want = _sobol_points_ref(n, dim, sh)
                assert got.shape == want.shape == (n, dim)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, dim, sh)


def test_sobol_table_doubles_by_extension():
    for dim in (1, 4, 10):
        for n in (1, 2, 8192):
            small = qd._sobol_table(n, dim)
            big = qd._sobol_table(2 * n, dim)
            assert big.dtype == np.uint32
            assert np.array_equal(big[:n], small)
            assert np.array_equal(qd._sobol_table(2 * n, dim, small), big)
            assert np.array_equal(qd._sobol_table(8 * n, dim, small), qd._sobol_table(8 * n, dim))


@pytest.mark.parametrize("n_dims,kernel,s,tol,seed", [
    (1, "B", 1.0, 1e-6, 0),
    (2, "B", 0.9, 2e-4, 457),
    (5, "B", 1.8, 2e-4, 807),
    (10, "B", -0.5, 1e-4, 3),
    (1, "Delta", 0.48, 3e-3, 532),
    (3, "Delta", 1.0, 1e-5, 0),  # doubles n three times, to 65536 points per shift
    (5, "Delta", 2.0, 1e-4, 2),
])
def test_cube_integral_matches_mask_loop_reference(n_dims, kernel, s, tol, seed):
    r = qd.cube_integral(n_dims, kernel, s, tol, seed)
    assert (r.value, r.abs_err_est, r.evals, r.diagnostics) \
        == _cube_integral_ref(n_dims, kernel, s, tol, seed)
