"""Direct numerical evaluation of the hypergeometric series families and special
constants used by the catalog closed forms.

All series are summed with compensated (Kahan) accumulation; the tail bound is
|next term| / (1 - measured ratio), required below the caller's tolerance.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DivergentArgument, DomainError, LowerPole, NoConvergence, OutsideROC
from .gammafn import EULER_GAMMA, gammaln_signed, polygamma

_MAX_TERMS = 100000


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _is_nonpositive_integer(x) -> bool:
    if isinstance(x, complex):
        return x.imag == 0 and _is_nonpositive_integer(x.real)
    return x <= 0 and float(x) == math.floor(x)


def pochhammer(a, m: int):
    p = 1.0
    for i in range(m):
        p *= a + i
    return p


def pfq_term(upper, lower, z, m: int):
    """m-th series term from direct Pochhammer products (reference path)."""
    num = 1.0
    for a in upper:
        num *= pochhammer(a, m)
    den = math.factorial(m)
    for b in lower:
        den *= pochhammer(b, m)
    return num * z ** m / den


def pfq(upper, lower, z, tol: float = 1e-12, regularized: bool = False):
    """Generalized hypergeometric sum_m prod(a)_m / prod(b)_m z^m / m!.

    regularized=True divides each term by Gamma(b_j + m) instead of (b_j)_m,
    which stays finite when a lower parameter is a nonpositive integer.
    """
    p, q = len(upper), len(lower)
    if p > q + 1:
        raise DivergentArgument(f"pFq with p={p} > q+1={q + 1}")
    if p == q + 1 and abs(z) >= 1.0:
        raise DivergentArgument(f"pFq with p=q+1 requires |z|<1, got {abs(z)}")
    if not regularized:
        for b in lower:
            if _is_nonpositive_integer(b):
                raise LowerPole(f"lower parameter {b} is a nonpositive integer")

    use_complex = any(isinstance(v, complex) for v in (*upper, *lower, z))
    acc = _Kahan()
    acc_im = _Kahan()

    if regularized:
        # per-term evaluation through signed log-gammas; terms with a gamma pole
        # in the denominator vanish
        total_checked = 0
        prev = None
        for m in range(_MAX_TERMS):
            num = 1.0
            for a in upper:
                num *= pochhammer(a, m)
            lg = -math.lgamma(m + 1)
            sign = 1
            pole = False
            for b in lower:
                try:
                    l, s = gammaln_signed(b + m)
                except ValueError:
                    pole = True
                    break
                lg -= l
                sign *= s
            term = 0.0 if pole else num * sign * math.exp(lg) * z ** m
            acc.add(term)
            if prev is not None and term != 0.0 and abs(prev) > 0:
                r = abs(term) / abs(prev)
                if r < 1.0 and abs(term) * r / (1.0 - r) < tol:
                    total_checked += 1
                    if total_checked >= 3:
                        return acc.s
                else:
                    total_checked = 0
            if term != 0.0:
                prev = term
        raise NoConvergence("regularized pFq did not meet tolerance")

    term = complex(1.0) if use_complex else 1.0
    acc.add(term.real if use_complex else term)
    if use_complex:
        acc_im.add(term.imag)
    ok_streak = 0
    for m in range(_MAX_TERMS):
        ratio = z / (m + 1)
        for a in upper:
            ratio *= a + m
        for b in lower:
            ratio /= b + m
        term = term * ratio
        if use_complex:
            acc.add(term.real)
            acc_im.add(term.imag)
        else:
            acc.add(term)
        if term == 0:
            return complex(acc.s, acc_im.s) if use_complex else acc.s
        r = abs(ratio)
        if r < 1.0 and abs(term) * r / (1.0 - r) < tol:
            ok_streak += 1
            if ok_streak >= 2:
                return complex(acc.s, acc_im.s) if use_complex else acc.s
        else:
            ok_streak = 0
    raise NoConvergence("pFq did not meet tolerance within term budget")


def f21_at_minus1(a, b, c, tol: float = 1e-12):
    """2F1(a, b; c; -1) through the Pfaff map z -> z/(z-1): 2^-a 2F1(a, c-b; c; 1/2)."""
    if _is_nonpositive_integer(c):
        raise LowerPole(f"lower parameter {c} is a nonpositive integer")
    return 2.0 ** (-a) * pfq([a, c - b], [c], 0.5, tol)


def appell_f1(a, b1, b2, c, x, y, tol: float = 1e-12):
    """Appell F1 double series, |x|<1 and |y|<1."""
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise OutsideROC(f"F1 requires |x|<1 and |y|<1, got ({x}, {y})")
    if _is_nonpositive_integer(c):
        raise LowerPole(f"lower parameter {c} is a nonpositive integer")
    acc = _Kahan()
    row = 1.0  # (a)_m (b1)_m x^m / ((c)_m m!)
    for m in range(_MAX_TERMS):
        # inner: sum_n (a+m)_n (b2)_n y^n / ((c+m)_n n!)  = 2F1(a+m, b2; c+m; y)
        inner = pfq([a + m, b2], [c + m], y, tol * 0.1)
        acc.add(row * inner)
        nxt = row * (a + m) * (b1 + m) * x / ((c + m) * (m + 1))
        r = abs(nxt) / abs(row) if row != 0 else 0.0
        if row != 0 and r < 1.0 and abs(nxt * inner) / (1.0 - r) < tol:
            return acc.s
        if row == 0:
            return acc.s
        row = nxt
    raise NoConvergence("Appell F1 did not meet tolerance")


def lauricella_fc(a, b, c_list, x_list, tol: float = 1e-12):
    """Lauricella F_C N-fold series; requires sum_i sqrt|x_i| < 1."""
    n = len(x_list)
    if len(c_list) != n:
        raise ValueError("c_list and x_list must have equal length")
    if sum(math.sqrt(abs(x)) for x in x_list) >= 1.0:
        raise OutsideROC("F_C requires sum sqrt|x_i| < 1")
    for c in c_list:
        if _is_nonpositive_integer(c):
            raise LowerPole(f"lower parameter {c} is a nonpositive integer")
    if n == 0:
        return 1.0
    acc = _Kahan()
    shell_prev = None
    streak = 0
    zero_streak = 0
    for t in range(_MAX_TERMS):
        # shells by total degree; t stays modest inside the ROC
        num = pochhammer(a, t) * pochhammer(b, t)
        shell = 0.0
        for m in _compositions(t, n):
            den = 1.0
            val = num
            for i in range(n):
                den *= pochhammer(c_list[i], m[i]) * math.factorial(m[i])
                val *= x_list[i] ** m[i]
            shell += val / den
        acc.add(shell)
        if shell == 0.0:
            zero_streak += 1
            if zero_streak >= 3 and t >= 2:
                return acc.s
            continue
        zero_streak = 0
        if shell_prev is not None:
            r = abs(shell) / abs(shell_prev)
            if r < 1.0 and abs(shell) * r / (1.0 - r) < tol:
                streak += 1
                if streak >= 2:
                    return acc.s
            else:
                streak = 0
        shell_prev = shell
    raise NoConvergence("Lauricella F_C did not meet tolerance")


def _compositions(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def kdf_2111(a1, a2, b1, b2, c1, d1, e1, x, y, tol: float = 1e-12):
    """Kampe de Feriet F^{2:1:1}_{1:1:1} double series; sqrt|x|+sqrt|y| < 1."""
    if math.sqrt(abs(x)) + math.sqrt(abs(y)) >= 1.0:
        raise OutsideROC("KdF 2:1:1 requires sqrt|x| + sqrt|y| < 1")
    for c in (c1, d1, e1):
        if _is_nonpositive_integer(c):
            raise LowerPole(f"lower parameter {c} is a nonpositive integer")
    acc = _Kahan()
    row = 1.0  # (a1)_m (a2)_m (b1)_m x^m / ((c1)_m (d1)_m m!)
    for m in range(_MAX_TERMS):
        inner = pfq([a1 + m, a2 + m, b2], [c1 + m, e1], y, tol * 0.1)
        acc.add(row * inner)
        nxt = row * (a1 + m) * (a2 + m) * (b1 + m) * x / ((c1 + m) * (d1 + m) * (m + 1))
        if row != 0:
            r = abs(nxt) / abs(row)
            if r < 1.0 and abs(nxt * inner) / (1.0 - r) < tol:
                return acc.s
        else:
            return acc.s
        row = nxt
    raise NoConvergence("KdF 2:1:1 did not meet tolerance")


# ---------------------------------------------------------------------------
# special constants / functions


def _compute_zeta3() -> float:
    # accelerated central-binomial series, ~4^-n convergence
    s = 0.0
    for n in range(1, 40):
        s += (-1.0) ** (n - 1) / (n ** 3 * math.comb(2 * n, n))
    return 2.5 * s


ZETA3 = _compute_zeta3()
ZETA2 = math.pi ** 2 / 6.0
ZETA4 = math.pi ** 4 / 90.0


def dilog(z, tol: float = 1e-14):
    """Li_2(z) on the cut plane C minus [1, inf); complex in, complex out."""
    z = complex(z)
    if z == 0:
        return 0j
    if z == 1:
        return complex(ZETA2)
    if z.imag == 0 and z.real > 1:
        raise DomainError("dilog on the branch cut [1, inf)")
    # move into |z| <= 1 then Re-safe series region |z| <= 1/2
    if abs(z) > 1.0:
        # Li2(z) = -Li2(1/z) - pi^2/6 - ln(-z)^2 / 2
        return -dilog(1.0 / z, tol) - ZETA2 - 0.5 * cmath.log(-z) ** 2
    if abs(z) > 0.5:
        if abs(1.0 - z) < abs(z):
            # reflection: Li2(z) = pi^2/6 - ln z ln(1-z) - Li2(1-z)
            return ZETA2 - cmath.log(z) * cmath.log(1.0 - z) - dilog(1.0 - z, tol)
        # Landen: Li2(z) = -Li2(z/(z-1)) - ln(1-z)^2 / 2
        return -dilog(z / (z - 1.0), tol) - 0.5 * cmath.log(1.0 - z) ** 2
    total = 0j
    term = z
    n = 1
    while abs(term) / (n * n) > tol * 0.01 and n < 2000:
        total += term / (n * n)
        term *= z
        n += 1
    return total


def erf(x: float) -> float:
    if x < 0:
        return -erf(-x)
    if x == 0:
        return 0.0
    if x <= 3.0:
        # ascending series, mild cancellation for x <= 3
        s = 0.0
        term = x
        n = 0
        while abs(term) > 1e-18 * max(1.0, abs(s)):
            s += term / (2 * n + 1)
            n += 1
            term *= -x * x / n
            if n > 200:
                break
        return 2.0 / math.sqrt(math.pi) * s
    if x > 6.0:
        return 1.0
    return 1.0 - _erfc_cf(x)


def _erfc_cf(x: float) -> float:
    # continued fraction erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...))))
    # evaluated bottom-up with enough levels for x >= 3
    levels = 60
    f = 0.0
    for k in range(levels, 0, -1):
        f = (k * 0.5) / (x + f)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + f)


def besselk0(t: float) -> float:
    """Modified Bessel K0; ascending series for t <= 2, exp-weighted quadrature above.

    The asymptotic series alone cannot reach 1e-12 relative until t ~ 18, so the
    mid range integrates exp(-t cosh u) with Gauss-Legendre panels instead.
    """
    return float(besselk0_vec(np.array([t], dtype=float))[0])


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [-1, 1] by Newton iteration on the recurrence."""
    if n in _GL_CACHE:
        return _GL_CACHE[n]
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    _GL_CACHE[n] = (x, w)
    return x, w


def _k0_integral(t: np.ndarray) -> np.ndarray:
    # K0(t) = int_0^inf exp(-t cosh u) du; integrand needs u up to acosh(50/t)
    x, w = gauss_legendre(48)
    out = np.zeros_like(t)
    umax = np.arccosh(np.maximum(50.0 / t, 1.5))
    for frac_lo, frac_hi in ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0)):
        lo = umax * frac_lo
        hi = umax * frac_hi
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * x[None, :]
        out += half * np.sum(np.exp(-t[:, None] * np.cosh(u)) * w[None, :], axis=1)
    return out


def _k0_series(t: np.ndarray) -> np.ndarray:
    # the ascending series for 0 < t <= 2, the same bits as a scalar loop over
    # j that stops after the first term below 1e-19 (j <= 13 for x2 <= 1):
    # the products and sums run in that loop's order (accumulate is sequential)
    if np.any(t <= 0):
        raise DomainError("besselk0 requires t > 0")
    j = np.arange(1, 16)
    terms = np.ones((len(j) + 1, len(t)))
    np.cumprod((t * t / 4.0) / (j * j)[:, None], axis=0, out=terms[1:])
    i0 = np.cumsum(terms, axis=0)
    k0sum = np.cumsum(terms[1:] * np.cumsum(1.0 / j)[:, None], axis=0)
    stop = np.argmax(terms[1:] < 1e-19, axis=0)
    cols = np.arange(len(t))
    # math.log, not np.log, which differs from it in the last bit at some t
    log = np.array([math.log(x) for x in t / 2.0])
    return -(log + EULER_GAMMA) * i0[stop + 1, cols] + k0sum[stop, cols]


def besselk0_vec(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    small, mid = t <= 2.0, (t > 2.0) & (t <= 720.0)
    if np.any(small):
        out[small] = _k0_series(t[small])
    if np.any(mid):
        out[mid] = _k0_integral(t[mid])
    return out


def ellipk(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention K(m) = F(pi/2 | m)."""
    if m >= 1.0:
        raise DomainError("ellipk requires m < 1")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) < 1e-17 * a:
            break
    return math.pi / (2.0 * a)


def besselj(order: int, x: float) -> float:
    """Bessel J of integer order >= 0 (catalog oracle helper)."""
    if order < 0:
        raise DomainError("besselj implemented for integer order >= 0")
    if x < 0:
        return (-1.0) ** order * besselj(order, -x)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x <= 12.0:
        # ascending series; cancellation bounded by e^x at x<=12
        s = 0.0
        term = (0.5 * x) ** order / math.factorial(order)
        n = 0
        while abs(term) > 1e-19 * max(abs(s), 1e-300) or n < 5:
            s += term
            n += 1
            term *= -(0.25 * x * x) / (n * (n + order))
            if n > 300:
                break
        return s
    j0, j1 = _besselj01_asym(x)
    if order == 0:
        return j0
    if order == 1:
        return j1
    if order <= x:
        # upward recurrence is stable while order < x
        jm, j = j0, j1
        for k in range(1, order):
            jm, j = j, 2.0 * k / x * j - jm
        return j
    return _besselj_miller(order, x)


def _besselj01_asym(x: float) -> tuple[float, float]:
    # Hankel asymptotic expansions, x > 12
    p0, q0 = 1.0, -0.125 / x
    p1, q1 = 1.0, 0.375 / x
    x2 = 1.0 / (x * x)
    # P/Q series terms for nu=0 and nu=1
    mu0, mu1 = 0.0, 4.0
    tp0 = tp1 = 1.0
    tq0, tq1 = q0, q1
    p0s, q0s, p1s, q1s = 1.0, q0, 1.0, q1
    for k in range(1, 9):
        tp0 *= -(mu0 - (4 * k - 3) ** 2) * (mu0 - (4 * k - 1) ** 2) / ((2 * k - 1) * 2 * k * 64) * x2
        p0s += tp0
        tq0 *= -(mu0 - (4 * k - 1) ** 2) * (mu0 - (4 * k + 1) ** 2) / ((2 * k) * (2 * k + 1) * 64) * x2
        q0s += tq0
        tp1 *= -(mu1 - (4 * k - 3) ** 2) * (mu1 - (4 * k - 1) ** 2) / ((2 * k - 1) * 2 * k * 64) * x2
        p1s += tp1
        tq1 *= -(mu1 - (4 * k - 1) ** 2) * (mu1 - (4 * k + 1) ** 2) / ((2 * k) * (2 * k + 1) * 64) * x2
        q1s += tq1
    c = math.sqrt(2.0 / (math.pi * x))
    chi0 = x - 0.25 * math.pi
    chi1 = x - 0.75 * math.pi
    j0 = c * (p0s * math.cos(chi0) - q0s * math.sin(chi0))
    j1 = c * (p1s * math.cos(chi1) - q1s * math.sin(chi1))
    return j0, j1


def _besselj_miller(order: int, x: float) -> float:
    m = 2 * ((order + int(x) + 30) // 2)
    jp, j = 0.0, 1e-300
    target = 0.0
    norm = 0.0
    for k in range(m, 0, -1):
        jm = 2.0 * k / x * j - jp
        jp, j = j, jm
        if abs(j) > 1e280:
            jp *= 1e-280
            j *= 1e-280
            target *= 1e-280
            norm *= 1e-280
        if k - 1 == order:
            target = j
        if (k - 1) % 2 == 0:
            norm += 2.0 * j if k - 1 > 0 else j
    return target / norm
