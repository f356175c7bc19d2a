"""Independent numerical oracles: adaptive 1-D quadrature, Bessel K0 moments,
and quasi-Monte-Carlo cube integration.

These are the cross-check side of every dual-route test in the catalog; they
share no code path with the contour or residue-series evaluators beyond the
K0 kernel itself.

The cube integral builds one table of unshifted Sobol integers per point
count n, shares it across its eight digital shifts (each shift is one XOR
into the table), and extends it by one doubling step when n doubles.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, PoleProximity
from .gammafn import EULER_GAMMA
from .hyperfun import besselk0_vec, gauss_legendre


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    evals: int
    diagnostics: dict = field(default_factory=dict)


def _call_vectorized(f, x: np.ndarray) -> np.ndarray:
    y = f(x)
    arr = np.asarray(y, dtype=float)
    if arr.shape != x.shape:
        arr = np.array([float(f(float(xx))) for xx in x])
    return arr


def _adaptive(f, a: float, b: float, tol: float, max_segments: int = 4000):
    """Adaptive bisection with an embedded GL10/GL21 pair; absolute tolerance."""
    x10, w10 = gauss_legendre(10)
    x21, w21 = gauss_legendre(21)
    evals = 0

    def seg(lo, hi):
        nonlocal evals
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y21 = _call_vectorized(f, mid + half * x21)
        y10 = _call_vectorized(f, mid + half * x10)
        evals += 31
        i21 = half * float(np.dot(w21, y21))
        i10 = half * float(np.dot(w10, y10))
        return i21, abs(i21 - i10)

    v, e = seg(a, b)
    heap = [(-e, a, b, v)]
    total, err = v, e
    n = 1
    while err > tol and n < max_segments:
        ne, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = seg(lo, mid)
        v2, e2 = seg(mid, hi)
        total += v1 + v2 - v
        err += e1 + e2 + ne
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n += 1
    if err > tol:
        raise NoConvergence(f"adaptive quadrature stalled at err={err:.3e} > tol={tol:.3e}")
    return total, err, evals


def quad_1d(f, domain, tol: float = 1e-10) -> QuadResult:
    """Adaptive quadrature on [a, b] or (0, inf); (0, inf) is mapped via t = u/(1-u)."""
    a, b = domain
    if math.isinf(b):
        def g(u):
            u = np.asarray(u)
            t = a + u / (1.0 - u)
            return _call_vectorized(f, t) / (1.0 - u) ** 2

        val, err, evals = _adaptive(g, 0.0, 1.0, tol)
    else:
        val, err, evals = _adaptive(f, float(a), float(b), tol)
    return QuadResult(value=val, abs_err_est=err, evals=evals)


# ---------------------------------------------------------------------------
# Bessel moments c_{n,k} = int_0^inf t^k K0(t)^n dt


def _k0_short_expansion():
    # K0 = P(t) - I0(t) ln t with polynomial parts kept through t^4:
    #   I0 = 1 + t^2/4 + t^4/64
    #   P  = (ln 2 - gamma) I0 + t^2/4 + 3 t^4/128
    c = math.log(2.0) - EULER_GAMMA
    # dict (power of t^2, power of ln t) -> coefficient
    poly = {
        (0, 0): c, (1, 0): c / 4.0 + 0.25, (2, 0): c / 64.0 + 3.0 / 128.0,
        (0, 1): -1.0, (1, 1): -0.25, (2, 1): -1.0 / 64.0,
    }
    return poly


def _poly_pow(poly: dict, n: int, max_t2: int = 2) -> dict:
    out = {(0, 0): 1.0}
    for _ in range(n):
        nxt: dict = {}
        for (p1, l1), c1 in out.items():
            for (p2, l2), c2 in poly.items():
                p, l = p1 + p2, l1 + l2
                if p > max_t2:
                    continue
                nxt[(p, l)] = nxt.get((p, l), 0.0) + c1 * c2
        out = nxt
    return out


def _int_tk_logj(q: float, j: int, eps: float) -> float:
    # int_0^eps t^q ln^j t dt  (q > -1)
    s = 0.0
    le = math.log(eps)
    for i in range(j + 1):
        s += (-1.0) ** i * math.factorial(j) / math.factorial(j - i) \
            * le ** (j - i) / (q + 1.0) ** (i + 1)
    return eps ** (q + 1.0) * s


def bessel_moment(n: int, k: int, tol: float = 1e-11) -> QuadResult:
    """c_{n,k} = int_0^inf t^k K0^n(t) dt.

    [0, eps] is integrated from the short-t expansion of K0^n (polynomial in
    t^2 and ln t), because adaptive rules converge slowly on log^n endpoints.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    eps = 1e-3
    head = 0.0
    for (p, l), c in _poly_pow(_k0_short_expansion(), n).items():
        head += c * _int_tk_logj(k + 2.0 * p, l, eps)

    t_hi = (46.0 + k * 4.0) / n + 4.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return t ** k * besselk0_vec(t) ** n

    val, err, evals = _adaptive(integrand, eps, t_hi, tol)
    # analytic tail bound: K0(t) < sqrt(pi/2t) e^-t
    tail = (math.pi / (2 * t_hi)) ** (n / 2.0) * t_hi ** k * math.exp(-n * t_hi) / n * 2.0
    return QuadResult(value=head + val, abs_err_est=err + tail + eps ** (k + 7) * 40.0,
                      evals=evals, diagnostics={"head": head, "tail_bound": tail})


# ---------------------------------------------------------------------------
# Sobol sequence (Joe-Kuo direction numbers, dimensions <= 10) with digital shifts

_JOE_KUO = {
    # dim: (s, a, [m_1..m_s])
    2: (1, 0, [1]),
    3: (2, 1, [1, 3]),
    4: (3, 1, [1, 3, 1]),
    5: (3, 2, [1, 1, 1]),
    6: (4, 1, [1, 1, 3, 3]),
    7: (4, 4, [1, 3, 5, 13]),
    8: (5, 2, [1, 1, 5, 5, 17]),
    9: (5, 4, [1, 1, 5, 5, 5]),
    10: (5, 7, [1, 1, 7, 11, 19]),
}

_SOBOL_BITS = 31


@lru_cache(maxsize=None)
def _direction_numbers(dim: int) -> tuple[int, ...]:
    if dim == 1:
        return tuple(1 << (_SOBOL_BITS - 1 - j) for j in range(_SOBOL_BITS))
    s, a, m = _JOE_KUO[dim]
    v = [m[j] << (_SOBOL_BITS - 1 - j) for j in range(s)]
    for j in range(s, _SOBOL_BITS):
        x = v[j - s] ^ (v[j - s] >> s)
        for k in range(1, s):
            if (a >> (s - 1 - k)) & 1:
                x ^= v[j - k]
        v.append(x)
    return tuple(v)


def _sobol_table(n: int, dim: int, table: np.ndarray | None = None) -> np.ndarray:
    """Unshifted integers of the first n Gray-code Sobol points, (n, dim) uint32.

    Built by doubling: in the reflected Gray code, rows 2^k..2^(k+1)-1 are
    rows 2^k-1..0 XOR the k-th direction numbers.  Passing the table built
    for a smaller power-of-two count extends it instead of rebuilding it.
    """
    if dim < 1 or dim > 10:
        raise ValueError("sobol_points supports 1 <= dim <= 10")
    vs = np.array([_direction_numbers(d + 1) for d in range(dim)], dtype=np.uint32).T
    x = np.empty((1 << (n - 1).bit_length(), dim), dtype=np.uint32)
    m = 1 if table is None else len(table)
    x[:m] = 0 if table is None else table
    while m < len(x):
        np.bitwise_xor(x[m - 1::-1], vs[m.bit_length() - 1], out=x[m:2 * m])
        m *= 2
    return x[:n]


def _to_unit(ints: np.ndarray) -> np.ndarray:
    pts = ints + 0.5
    pts /= float(1 << _SOBOL_BITS)
    return pts


def sobol_points(n: int, dim: int, shift: np.ndarray | None = None) -> np.ndarray:
    """First n Gray-code Sobol points in [0,1)^dim, optionally digitally shifted."""
    table = _sobol_table(n, dim)
    return _to_unit(table if shift is None else table ^ shift)


_N_SHIFTS = 8


def cube_integral(n_dims: int, kernel: str, s: float, tol: float = 1e-6,
                  seed: int = 0) -> QuadResult:
    """QMC integral of the box kernels over the unit cube.

    kernel "B": E[(r_1^2+..+r_n^2)^(s/2)] on [0,1]^n   (n_dims <= 10)
    kernel "Delta": same for |r - q| with independent q  (2*n_dims <= 10)
    """
    if kernel not in ("B", "Delta"):
        raise ValueError("kernel must be 'B' or 'Delta'")
    dim = n_dims if kernel == "B" else 2 * n_dims
    if dim > 10:
        raise ValueError("dimension above QMC table range")
    if s <= -n_dims:
        raise PoleProximity(f"s={s} at or beyond the pole s=-{n_dims}")
    if abs(s + n_dims) < 0.05:
        raise PoleProximity(f"s={s} within 0.05 of the pole s=-{n_dims}")

    rng = np.random.default_rng(seed)
    shifts = rng.integers(0, 1 << _SOBOL_BITS, size=(_N_SHIFTS, dim),
                          dtype=np.int64).astype(np.uint32)

    def kernel_mean(pts: np.ndarray) -> float:
        d = pts if kernel == "B" else pts[:, :n_dims] - pts[:, n_dims:]
        return float(np.mean(np.sum(d * d, axis=1) ** (s / 2.0)))

    n = 1 << 13
    n_cap = 1 << 19
    evals = 0
    table = _sobol_table(n, dim)
    while True:
        means = [kernel_mean(_to_unit(table ^ shift)) for shift in shifts]
        evals += _N_SHIFTS * n
        value = float(np.mean(means))
        err = float(np.std(means, ddof=1) / math.sqrt(_N_SHIFTS)) * 1.5
        if err <= tol or n >= n_cap:
            break
        n *= 2
        table = _sobol_table(n, dim, table)
    if err > tol * 4.0 and err > 1e-5:
        raise NoConvergence(f"QMC error estimate {err:.2e} above tolerance {tol:.2e}")
    return QuadResult(value=value, abs_err_est=max(err, 1e-9), evals=evals,
                      diagnostics={"points_per_shift": n, "shifts": _N_SHIFTS})
