"""Gamma-function kernels shared by the contour, residue, and series evaluators.

clgamma:   complex log-gamma, Lanczos (g=7, 9 terms), ~1e-13 relative on the strips
           used by the contour integrator.  Branch is only stable modulo 2*pi*i,
           which is harmless because every consumer exponentiates integer multiples.
gammaln_signed: log|Gamma| and sign for real non-pole arguments.
polygamma: psi^(m) for m = 0..4 at real non-pole arguments (upward recurrence to
           x >= 16, then the Bernoulli asymptotic series).
"""
from __future__ import annotations

import math

import numpy as np

_LANCZOS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_TWO_PI = 0.9189385332046727417803297364056176398
LOG_PI = 1.1447298858494001741434273513530587116

# Bernoulli numbers B_2..B_14 for the psi asymptotics
_BERN = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)

# B_2i (2i+m-1)!/(2i)!: the psi^(m) asymptotic coefficients for m = 1..4
_PSI_ASYMPTOTIC = {m: tuple(b * math.factorial(2 * i + m - 1) / math.factorial(2 * i)
                            for i, b in enumerate(_BERN, 1)) for m in range(1, 5)}

EULER_GAMMA = 0.5772156649015328606065120900824024310


def log_sin_pi(z):
    """log(sin(pi z)) for complex z, stable for large |Im z| (branch mod 2*pi*i)."""
    z = np.asarray(z, dtype=complex)
    iz = 1j * np.pi * z
    up = z.imag >= 0.0
    out = np.empty(z.shape, dtype=complex)
    if np.any(up):
        out[up] = -iz[up] + np.log1p(-np.exp(2.0 * iz[up])) + np.log(0.5j)
    if np.any(~up):
        out[~up] = iz[~up] + np.log1p(-np.exp(-2.0 * iz[~up])) + np.log(-0.5j)
    return out


def _lanczos_positive(z):
    x = np.full(z.shape, _LANCZOS[0], dtype=complex)
    for k in range(1, 9):
        x = x + _LANCZOS[k] / (z - 1.0 + k)
    t = z + 6.5
    return _HALF_LOG_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(x)


def clgamma(z):
    """Complex log-gamma; scalar in, scalar out; array in, array out."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=complex)
    refl = z.real < 0.5
    if np.any(~refl):
        out[~refl] = _lanczos_positive(z[~refl])
    if np.any(refl):
        zr = z[refl]
        out[refl] = LOG_PI - log_sin_pi(zr) - _lanczos_positive(1.0 - zr)
    return out[0] if scalar else out


def gammaln_signed(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign) for real non-pole x; raises on nonpositive integers."""
    if x > 0:
        return math.lgamma(x), 1
    if x == math.floor(x):
        raise ValueError(f"gamma pole at {x}")
    # reflection: Gamma(x) = pi / (sin(pi x) Gamma(1-x))
    s = math.sin(math.pi * x)
    lg = LOG_PI - math.log(abs(s)) - math.lgamma(1.0 - x)
    return lg, (1 if s > 0 else -1)


def gamma_signed(x: float) -> float:
    lg, sg = gammaln_signed(x)
    return sg * math.exp(lg)


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) for m = 0..4 and real x other than 0, -1, -2, ..."""
    if m < 0 or m > 4:
        raise ValueError("order out of supported range 0..4")
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"polygamma pole at {x}")
    shift = 0.0
    # psi^(m)(x) = psi^(m)(x+1) + (-1)^(m+1) m! / x^(m+1)
    step = (-1.0) ** (m + 1) * math.factorial(m)
    while x < 16.0:
        shift += step / x ** (m + 1)
        x += 1.0
    if m == 0:
        s = math.log(x) - 0.5 / x
        for i, b in enumerate(_BERN, 1):
            s -= b / (2 * i * x ** (2 * i))
    else:
        t = math.factorial(m - 1) / x ** m + math.factorial(m) / (2.0 * x ** (m + 1))
        for i, c in enumerate(_PSI_ASYMPTOTIC[m], 1):
            t += c / x ** (2 * i + m)
        s = (-1.0) ** (m - 1) * t
    return s + shift
