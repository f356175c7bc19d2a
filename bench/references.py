"""High-precision references for the benchmark, computed with mpmath alone.

Nothing here imports mbeval: every value is an independent check of what the
program prints.  The Bessel integrals and the Gaussian-identity integrals take
0.1-2 s each at the working precision, so the values every workload can draw
(for any seed) are computed once and kept in ``references.json``.  Regenerate
that file with

    python3 bench/references.py --regenerate

which recomputes every key of ``workloads.reference_keys()``.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp

DPS = 20
CACHE_PATH = Path(__file__).resolve().parent / "references.json"
_SERIES_CUT = mp.mpf("0.5")


def _quad(f, points):
    with mp.workdps(DPS + 5):
        value, err = mp.quad(f, points, error=True)
    if err > abs(value) * mp.mpf(10) ** (-DPS + 4) and err > mp.mpf(10) ** (-DPS):
        raise ArithmeticError(f"mpmath quadrature error {err} too large")
    return value


# ---------------------------------------------------------------------------
# Bessel-K integrals


def bessel_moment(n: int, k: int):
    """c_{n,k} = int_0^inf t^k K0(t)^n dt."""
    return _quad(lambda t: t ** k * mp.besselk(0, t) ** n, [0, 1, mp.inf])


def ising_c(n: int, k: int):
    """C_{n,k} = 2^(n-k+1) / (n! k!) c_{n,k}."""
    return mp.mpf(2) ** (n - k + 1) / (mp.factorial(n) * mp.factorial(k)) \
        * bessel_moment(n, k)


def ising_param(k: int, exponents):
    """(2^n / k!) int_0^inf s^k prod K_{e_i}(2s) ds, finite for sum e_i < k+1."""
    es = [mp.mpf(Fraction(e).numerator) / Fraction(e).denominator for e in exponents]

    def f(s):
        out = s ** k
        for e in es:
            out *= mp.besselk(e, 2 * s)
        return out

    # f ~ s^(k - sum e) at 0; on [0, 1] put s = t^p with p (k + 1 - sum e) = 1,
    # which leaves an integrand bounded at t = 0
    p = 1 / (k + 1 - sum(es))
    head = _quad(lambda t: p * t ** (p - 1) * f(t ** p), [0, 1])
    return mp.mpf(2) ** len(es) / mp.factorial(k) * (head + _quad(f, [1, mp.inf]))


def h1(a, b):
    """H1(a, b) = int_0^inf K0(a x) K0(b x) dx."""
    a, b = _mpf(a), _mpf(b)
    return _quad(lambda x: mp.besselk(0, a * x) * mp.besselk(0, b * x),
                 [0, 1 / max(a, b), mp.inf])


# ---------------------------------------------------------------------------
# box and distance moments from the Gaussian identity
#   r^s = (2 / Gamma(-s/2)) int_0^inf u^(-s-1) (exp(-u^2 r^2) - [s > 0]) du,
# averaged over the cube: E exp(-u^2 r^2) = f(u)^n with
#   b(u) = sqrt(pi) erf(u) / (2u)              (one coordinate of a point)
#   d(u) = 2 b(u) + (exp(-u^2) - 1) / u^2      (one coordinate of a difference)
# Both are 1 + g2 u^2 + O(u^4) at 0 and A/u + B/u^2 + O(exp(-u^2)) at infinity.
# Those two ends are integrated in closed form; what is left is smooth and
# decays fast.  Near 0 the series is used, since 1 - f(u) cancels there.


@dataclass(frozen=True)
class _Kernel:
    coef: object        # j -> u^(2j) Taylor coefficient of f
    closed: object      # u -> f(u)
    a: object
    b: object


_B = _Kernel(lambda j: (-1) ** j / (mp.factorial(j) * (2 * j + 1)),
             lambda u: mp.sqrt(mp.pi) * mp.erf(u) / (2 * u),
             lambda: mp.sqrt(mp.pi) / 2, lambda: mp.mpf(0))
_D = _Kernel(lambda j: (-1) ** j * (mp.mpf(2) / (mp.factorial(j) * (2 * j + 1))
                                     - mp.mpf(1) / mp.factorial(j + 1)),
             lambda u: mp.sqrt(mp.pi) * mp.erf(u) / u + mp.expm1(-u * u) / (u * u),
             lambda: mp.sqrt(mp.pi), lambda: mp.mpf(-1))


def _cube_moment(ker: _Kernel, n: int, s):
    """E[r^s] for -n < s < 2, s != 0, where E exp(-u^2 r^2) = f(u)^n."""
    s = _mpf(s)
    if not (-n < s < 2) or s == 0:
        raise ValueError(f"the Gaussian identity here needs -{n} < s < 2, s != 0")
    c = mp.mpf(1)
    g2 = ker.coef(1)

    def g_minus_lead(u):
        """f(u) - 1 - g2 u^2."""
        if u < _SERIES_CUT:
            return mp.nsum(lambda j: ker.coef(j) * u ** (2 * j), [2, mp.inf])
        return ker.closed(u) - 1 - g2 * u * u

    def head(u):
        # u^(-s-1) (f^n - 1 - n g2 u^2), with f^n - 1 expanded in g = f - 1
        r = g_minus_lead(u)
        g = g2 * u * u + r
        h = n * r + sum(mp.binomial(n, i) * g ** i for i in range(2, n + 1))
        return u ** (-s - 1) * h

    a, b = ker.a(), ker.b()

    def tail(u):
        lead = (a / u + b / (u * u)) ** n
        return u ** (-s - 1) * (ker.closed(u) ** n - lead)

    total = n * g2 * c ** (2 - s) / (2 - s) + _quad(head, [0, _SERIES_CUT, c])
    total += sum(mp.binomial(n, i) * a ** (n - i) * b ** i * c ** (-s - n - i) / (s + n + i)
                 for i in range(n + 1))
    total += _quad(tail, [c, 3, mp.inf])
    total += c ** (-s) / (-s)          # the constant 1 on [0, c] (s < 0) or -1 on [c, inf)
    return 2 / mp.gamma(-s / 2) * total


def box_b(n: int, s):
    """B_n(s) = E|r|^s over the unit n-cube."""
    return _cube_moment(_B, n, s)


def delta(n: int, s):
    """Delta_n(s) = E|r - q|^s for r, q independent in the unit n-cube."""
    return _cube_moment(_D, n, s)


# ---------------------------------------------------------------------------
# exact and closed-form values


def box_even_moment(n: int, k: int) -> Fraction:
    """B_n(2k) = E (r_1^2 + ... + r_n^2)^k, with E r^(2a) = 1/(2a+1)."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = Fraction(0)
    for a in compositions(k, n):
        term = Fraction(math.factorial(k))
        for ai in a:
            term /= math.factorial(ai) * (2 * ai + 1)
        out += term
    return out


def delta_two(n: int) -> Fraction:
    """Delta_n(2) = n E(x - y)^2 = n/6."""
    return Fraction(n, 6)


def jellium_three():
    """J_3 = pi/2 + 2 - 6 atanh(1/sqrt 3) (Bailey, Borwein and Crandall)."""
    return mp.pi / 2 + 2 - 6 * mp.atanh(1 / mp.sqrt(3))


def ruby_single(l: int, d, a: int, r):
    """int_0^inf k^l e^(-kd) J_a(kR) dk for (l, a) in {(0,0), (0,1), (1,0)}:
    the Laplace transforms of J0, J1 and t J0."""
    d, r = _mpf(d), _mpf(r)
    q = mp.sqrt(d * d + r * r)
    if (l, a) == (0, 0):
        return 1 / q
    if (l, a) == (0, 1):
        return (1 - d / q) / r
    if (l, a) == (1, 0):
        return d / q ** 3
    raise ValueError(f"no closed form wired for l={l}, a={a}")


def _mpf(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# the cache: key -> decimal string at DPS digits


def compute(key: str):
    """Value of one reference key, e.g. "ising:4:1" or "box:3:-31/20"."""
    kind, *args = key.split(":")
    with mp.workdps(DPS):
        if kind == "ising":
            return ising_c(int(args[0]), int(args[1]))
        if kind == "param":
            return ising_param(int(args[0]), [Fraction(e) for e in args[1].split(",")])
        if kind == "h1":
            return h1(Fraction(args[0]), Fraction(args[1]))
        if kind == "box":
            return box_b(int(args[0]), Fraction(args[1]))
        if kind == "delta":
            return delta(int(args[0]), Fraction(args[1]))
    raise KeyError(key)


class References:
    """Cached reference values, computed on a miss (slowly) and never saved
    from a benchmark run."""

    def __init__(self, path: Path = CACHE_PATH):
        self.values: dict[str, str] = {}
        if path.exists():
            self.values = json.loads(path.read_text())["values"]
        self.misses = 0

    def __call__(self, key: str) -> float:
        if key not in self.values:
            self.misses += 1
            self.values[key] = mp.nstr(compute(key), DPS)
        return float(mp.mpf(self.values[key]))


def regenerate(path: Path = CACHE_PATH) -> None:
    """Compute every key of workloads.reference_keys() and rewrite the cache."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import reference_keys
    keys = sorted(reference_keys())
    values = {}
    for i, key in enumerate(keys):
        values[key] = mp.nstr(compute(key), DPS)
        if (i + 1) % 100 == 0:
            print(f"{i + 1}/{len(keys)} references", file=sys.stderr, flush=True)
    path.write_text(json.dumps({"dps": DPS, "mpmath": mp.__version__,
                                "values": values}, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 bench/references.py --regenerate")
    regenerate()
