"""The integral catalog: Ising moments, Box/Delta integrals, the Jellium
constant, and Ruby's detector integral, each evaluable by several independent
routes (closed form, MB contour, conic-hull residue series, quadrature oracle).

Every MB representation here is derived from the defining integral through the
bracket engine rather than hard-coded, so the brackets -> MB pipeline is
exercised by construction.  The derived forms are pinned by structural tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import brackets as br
from . import chulls as ch
from . import hyperfun as hf
from . import mellin as ml
from . import quadrature as qd
from .errors import (DegenerateParameters, DomainError, InfeasibleContour,
                     MethodUnavailable, NoClosedForm, OutsideROC, PoleError,
                     ResonantLattice, UsageError)
from .gammafn import gamma_signed
from .result import EvalResult
from .symcore import GammaFactor, LinearForm, SymbolKind, SymbolTable

L = LinearForm
F = Fraction
HALF = F(1, 2)

# the errors by which a route says it does not apply here; ``auto`` then
# tries the next route
_REFUSALS = (NoClosedForm, MethodUnavailable, DomainError, PoleError,
             InfeasibleContour)


def _exact(x) -> Fraction:
    """An exact parameter value: ints and Fractions as they are, a float as
    the nearest fraction with denominator at most 1e9."""
    return F(x).limit_denominator(10 ** 9) if isinstance(x, float) else F(x)


def _first_route(routes: Sequence[str], evaluate) -> EvalResult:
    """``auto``: the result of the first of ``routes`` that does not refuse."""
    refusals = []
    for m in routes:
        try:
            return evaluate(m)
        except _REFUSALS as exc:
            refusals.append(f"{m}: {type(exc).__name__}: {exc}")
    raise MethodUnavailable("every route refused (" + "; ".join(refusals) + ")")


# ---------------------------------------------------------------------------
# bracket-series builders for the Ising family


def _ising_bracket_series(n: int, param_names: Sequence[str] | None):
    """Bracket series for int x1^(e1+k)...xn^(en+k) / (x1..xn sum(xi+1/xi))^(k+1).

    The denominator is grouped pairwise, (x1+x2)(...) etc., which maximizes the
    bracket count; each pair contributes one compound factor expanded separately.
    """
    t = SymbolTable()
    t.declare("k", SymbolKind.FREE_PARAMETER)
    ps = [t.declare(p, SymbolKind.FREE_PARAMETER) for p in (param_names or [])]
    xs = [t.declare(f"x{i + 1}", SymbolKind.FREE_PARAMETER) for i in range(n)]
    kk = L.symbol("k")
    terms, compounds = [], []
    base = {x: 1 for x in xs}
    n_pairs = n // 2 if n >= 3 else 0
    for p in range(n_pairs):
        a, b = xs[2 * p], xs[2 * p + 1]
        ph = t.declare(f"P{p + 1}", SymbolKind.FREE_PARAMETER)
        compounds.append((ph, (a, b)))
        t1 = dict(base)
        t1[ph] = 1
        terms.append(t1)
        t2 = dict(base)
        t2[a] = 0
        t2[b] = 0
        t2[ph] = 1
        terms.append(t2)
    for m in xs[2 * n_pairs:]:
        t1 = dict(base)
        t1[m] = 2
        terms.append(t1)
        t2 = dict(base)
        t2[m] = 0
        terms.append(t2)
    series = br.expand_multinomial(t, [br.PowerTerm.make(1, pw) for pw in terms],
                                   -(kk + 1))
    for ph, (a, b) in compounds:
        e = series.powers_dict().get(ph, L.constant(0))
        sub = br.expand_multinomial(
            t, [br.PowerTerm.make(1, {a: 1}), br.PowerTerm.make(1, {b: 1})], e)
        pw = series.powers_dict()
        pw.pop(ph, None)
        series = br.BracketSeries(t, series.indices, series.prefactor,
                                  series.base_powers, tuple(sorted(pw.items())),
                                  series.gammas, series.brackets)
        series = series.multiply(sub)
    if param_names:
        mono = {x: L.symbol(p) + kk for x, p in zip(xs, ps)}
    else:
        mono = {x: kk for x in xs}
    series = series.multiply(br.power_series_factor(t, mono))
    return t, br.integrate_to_brackets(series, xs)


_ISING_RETAIN = {3: ["n1"], 4: ["n1"], 5: ["n1", "n3"]}


@lru_cache(maxsize=None)
def ising_mb(n: int) -> ml.MBIntegrand:
    """MB representation of C_{n,k} (4/n! normalization folded in), k symbolic."""
    if n not in (3, 4, 5):
        raise MethodUnavailable(f"no MB representation wired for n={n}")
    _, series = _ising_bracket_series(n, None)
    mb = ml.derive_mb(series, _ISING_RETAIN[n])
    pref = mb.prefactor * F(4, math.factorial(n))
    return ml.MBIntegrand(mb.zsyms, pref, mb.pref_gammas, mb.base_powers,
                          mb.powers, mb.gammas, mb.params)


_PARAM_NAMES = {3: ("al", "be", "ga"), 4: ("al", "be", "ga", "de")}


@lru_cache(maxsize=None)
def ising_param_mb(n: int) -> ml.MBIntegrand:
    """MB representation of the exponent-generalized Ising integral (no 4/n!)."""
    if n not in (3, 4):
        raise MethodUnavailable(f"parametrized Ising MB only for n in (3, 4)")
    _, series = _ising_bracket_series(n, _PARAM_NAMES[n])
    return ml.derive_mb(series, ["n1"])


@lru_cache(maxsize=None)
def c5_param_mb() -> ml.MBIntegrand:
    """C_{5,k}(alpha,beta): the two-fold MB with alpha^z1 beta^z2 inserted."""
    mb = ising_mb(5)
    return mb.with_power("alpha", L.symbol("z1")).with_power("beta", L.symbol("z2"))


def h1_bracket_series() -> br.BracketSeries:
    """Bracket series of int K0(ax) K0(bx) dx from the two K0 expansions
    (the gamma-series form for K0(ax), the double-exponential form for K0(bx))."""
    t = SymbolTable()
    for p in ("a", "b", "x"):
        t.declare(p, SymbolKind.FREE_PARAMETER)
    for i in (1, 2, 3):
        t.declare(f"n{i}", SymbolKind.SUMMATION_INDEX)
    k0a = br.BracketSeries(
        table=t, indices=("n1",), prefactor=F(1),
        base_powers=((F(2), L({"n1": -2}, -1)),),
        powers=(("a", L({"n1": 2})), ("x", L({"n1": 2}))),
        gammas=(GammaFactor(L({"n1": -1}), 1),), brackets=())
    k0b = br.BracketSeries(
        table=t, indices=("n2", "n3"), prefactor=F(1),
        base_powers=((F(2), L({"n3": -2}, -1)),),
        powers=(("b", L({"n3": 2})), ("x", L({"n3": 2}))),
        gammas=(), brackets=(L({"n2": 1, "n3": -1}),))
    return br.integrate_to_brackets(k0a.multiply(k0b), ["x"])


@lru_cache(maxsize=None)
def h1_mb() -> ml.MBIntegrand:
    return ml.derive_mb(h1_bracket_series(), ["n3"])


# ---------------------------------------------------------------------------
# box integrals: the m-fold straight-contour pieces J_m(s)


def box_bracket_series(n: int):
    """Bracket series of (2/Gamma(-s/2)) int u^{-s-1} b(u)^n du with the
    u/(1+u) substitution inside each b factor."""
    t = SymbolTable()
    t.declare("s", SymbolKind.FREE_PARAMETER)
    t.declare("u", SymbolKind.FREE_PARAMETER)
    ss = L.symbol("s")
    factors = []
    avars = []
    exp_idx = []
    for i in range(n):
        a = t.declare(f"a{i + 1}", SymbolKind.FREE_PARAMETER)
        avars.append(a)
        # exp(-u^2 a^2/(1+a)^2): one exp index; (1+a)^{-2 m_i - 2} via brackets
        ph = t.declare(f"Q{i + 1}", SymbolKind.FREE_PARAMETER)  # stands for 1+a
        ex = br.expand_exponential(
            t, br.PowerTerm.make(1, {"u": 2, a: 2, ph: -2}))
        exp_idx.append(ex.indices[0])
        etot = ex.powers_dict().get(ph, L.constant(0)) - 2
        binom = br.expand_multinomial(
            t, [br.PowerTerm.make(1, {}), br.PowerTerm.make(1, {a: 1})], etot)
        pw = ex.powers_dict()
        pw.pop(ph, None)
        ex = br.BracketSeries(t, ex.indices, ex.prefactor, ex.base_powers,
                              tuple(sorted(pw.items())), ex.gammas, ex.brackets)
        factors.append(ex.multiply(binom))
    series = br.constant_series(t, 2)
    for f in factors:
        series = series.multiply(f)
    series = series.multiply(br.power_series_factor(t, {"u": -ss - 1}))
    series = br.integrate_to_brackets(series, ["u"] + avars)
    series = br.BracketSeries(series.table, series.indices, series.prefactor,
                              series.base_powers, series.powers,
                              series.gammas + (GammaFactor(-ss * HALF, -1),),
                              series.brackets)
    return series, exp_idx


@lru_cache(maxsize=None)
def box_j_mb(m: int):
    """m-fold piece of the box decomposition B_n(s) = sum_{j<n} J_j(s).

    This is the MB representation of B_{m+1}(s) (valid directly for s < 0);
    for 0 < s < 2 its first crossed pole is supplied by the lower pieces.
    Returns the integrand and the argument of the crossing gamma.
    """
    series, exp_idx = box_bracket_series(m + 1)
    mb = ml.derive_mb(series, exp_idx[:m])
    sum_arg = None
    for g in mb.gammas:
        if g.mult > 0 and all(g.arg.coeff(z) == 1 for z in mb.zsyms) \
                and g.arg.coeff("s") == -HALF:
            sum_arg = g.arg
    return mb, sum_arg


def _box_j_value(m: int, s: float, tol: float):
    """Continued value of the m-fold piece at argument s (recursive in the
    crossed poles of Gamma(sum z - s/2); each crossing telescopes to m-1)."""
    if m == 0:
        return 1.0 / (s + 1.0), 1e-16
    crossings = 0 if s < 0 else int(math.floor(s / 2.0)) + 1
    mb, sum_arg = box_j_mb(m)
    shifts = {sum_arg: crossings} if crossings else None
    ct = ml.choose_contour(mb, {"s": s}, pole_shifts=shifts)
    r = ml.eval_contour(mb, {"s": s}, ct, tol=tol)
    total, err = r.value, r.abs_err_est
    for j in range(crossings):
        # residue of pole j: (-1)^j/(j! (2j+1)) Gamma(-(s-2j)/2)/Gamma(-s/2)
        cj = (-1.0) ** j / (math.factorial(j) * (2 * j + 1)) \
            * gamma_signed(-(s - 2.0 * j) / 2.0) / gamma_signed(-s / 2.0)
        v, e = _box_j_value(m - 1, s - 2.0 * j, tol)
        total += cj * v
        err += abs(cj) * e
    return total, err


def _box_contour(n: int, s: float, tol: float) -> EvalResult:
    if s <= -2.0 or s == round(s) and s >= 0 and int(s) % 2 == 0:
        raise MethodUnavailable(
            "box contour path covers -2 < s with s not an even integer")
    v, e = _box_j_value(n - 1, s, tol * 0.5)
    return EvalResult(v, e, "contour", {"pieces": n})


def _box_even_moment(n: int, k: int) -> Fraction:
    """B_n(2k) = E[(r_1^2+...+r_n^2)^k], exact by multinomial expansion."""
    total = F(0)

    def rec(parts_left, remaining):
        if parts_left == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(parts_left - 1, remaining - first):
                yield (first,) + rest
    for a in rec(n, k):
        coef = F(math.factorial(k))
        for ai in a:
            coef /= math.factorial(ai)
            coef /= 2 * ai + 1
        total += coef
    return total


def _box_closed(n: int, s: float, tol: float) -> EvalResult:
    if s == round(s) and s >= 0 and int(round(s)) % 2 == 0:
        return EvalResult(float(_box_even_moment(n, int(round(s)) // 2)),
                          0.0, "closed", {"exact": True})
    if n == 1:
        if s == -1.0:
            raise PoleError("B_1 has a pole at s = -1")
        return EvalResult(1.0 / (s + 1.0), 1e-16, "closed", {})
    if n == 2:
        if s == -2.0:
            raise PoleError("B_2 has a pole at s = -2")
        v = 2.0 / (s + 2.0) * hf.f21_at_minus1(0.5, -s / 2.0, 1.5, tol * 0.1)
        return EvalResult(v, tol * 0.1, "closed", {})
    raise NoClosedForm(f"no closed form for B_{n}(s) at generic s")


def _box_b3_onedim(s: float, tol: float) -> EvalResult:
    if s <= -2.0:
        raise DomainError("one-dimensional representation needs s > -2")

    def f(t):
        return (1.0 + 1.0 / np.cos(t) ** 2) ** (s / 2.0 + 1.0) - 1.0

    q = qd.quad_1d(f, (0.0, math.pi / 4.0), tol * 0.1)
    c = 6.0 / ((s + 2.0) * (s + 3.0))
    return EvalResult(c * q.value, abs(c) * q.abs_err_est, "oracle",
                      {"representation": "sec^2 integral", "evals": q.evals})


def box_b(n: int, s: float, method: str = "auto", tol: float = 1e-8,
          seed: int = 0) -> EvalResult:
    """Box integral B_n(s); methods: closed / contour / oracle (n=3 also has the
    one-dimensional representation as its oracle)."""
    if n < 1:
        raise DomainError(f"box integrals need n >= 1, not {n}")
    if s == -float(n):
        raise PoleError(f"B_{n}(s) has a pole at s = -{n}")
    if method == "auto":
        return _first_route(("closed", "contour", "oracle"),
                            lambda m: box_b(n, s, m, tol, seed))
    if method == "closed":
        return _box_closed(n, s, tol)
    if method == "contour":
        if n == 1 or n > 4:
            raise MethodUnavailable("contour path wired for n = 2, 3, 4")
        return _box_contour(n, s, tol)
    if method == "oracle":
        if n == 3:
            return _box_b3_onedim(s, tol)
        r = qd.cube_integral(n, "B", s, max(tol, 1e-6), seed=seed)
        return EvalResult(r.value, r.abs_err_est, "oracle",
                          {"qmc_points": r.diagnostics.get("points_per_shift")})
    raise MethodUnavailable(f"unknown method {method!r}")


def _b_for_delta(n: int, s: float, tol: float, seed: int) -> tuple[float, float]:
    """(value, error) of a B-term feeding the Delta relations, cheapest
    reliable route first: exact even moments, closed forms, the B3 sec^2
    representation, the contour decomposition, QMC last."""
    if s == round(s) and s >= 0 and int(round(s)) % 2 == 0:
        return float(_box_even_moment(n, int(round(s)) // 2)), 0.0
    if n == 1:
        return 1.0 / (s + 1.0), 1e-16
    if n == 2:
        return _box_closed(2, s, tol * 1e-3).value, tol * 1e-3
    if n == 3:
        r = _box_b3_onedim(s, min(tol * 1e-2, 1e-9))
        return r.value, r.abs_err_est
    if n == 4:
        if tol <= 1e-5 and s <= 7.5:
            r = _box_contour(4, s, 4e-7)
            return r.value, r.abs_err_est
        r = qd.cube_integral(4, "B", s, 5e-7, seed=seed)
        return r.value, r.abs_err_est
    if n == 5:
        r = qd.cube_integral(5, "B", s, max(tol * 0.5, 5e-7), seed=seed)
        return r.value, r.abs_err_est
    raise ValueError(n)


def delta_b_terms(n: int, s: float) -> tuple[float, dict[tuple[int, float], float]]:
    """Delta_n(s) as constant + sum of coefficients times B_m(sigma).

    Derived from d(u) = 2 b(u) + (e^{-u^2}-1)/u^2: binomial expansion, the
    Gaussian Mellin integral, and the divergence-theorem recursion
    B+_(i,m)(sig) = ((m+1+sig) B+_(i-1,m+1)(sig) - sig (i-1) B+_(i-1,m+1)(sig-2))/(m+1)
    with B+_(i,0)(sig) = i^(sig/2) and B+_(0,m) = B_m.  The printed five-point
    relation in the source material fails its own s=2 check; this derivation is
    validated against the printed two-, three- and four-point relations.
    """
    terms: dict[tuple[int, float], float] = {}
    const = [0.0]

    def expand(i: int, m: int, sigma: float, coef: float):
        if m == 0:
            if i > 0:
                const[0] += coef * float(i) ** (sigma / 2.0)
            return
        if i == 0:
            key = (m, sigma)
            terms[key] = terms.get(key, 0.0) + coef
            return
        expand(i - 1, m + 1, sigma, coef * (m + 1 + sigma) / (m + 1))
        if sigma != 0.0 and i > 1:
            expand(i - 1, m + 1, sigma - 2.0, coef * (-sigma * (i - 1)) / (m + 1))

    for j in range(n + 1):
        pref = math.comb(n, j) * 2.0 ** (n - j) * (-2.0) ** j
        for r in range(1, j + 1):
            pref /= (s + 2.0 * r)
        for i in range(j + 1):
            expand(i, n - j, s + 2.0 * j,
                   pref * math.comb(j, i) * (-1.0) ** (j - i))
    return const[0], {k: v for k, v in terms.items() if v != 0.0}


def delta(n: int, s: float, method: str = "relation", tol: float = 1e-6,
          seed: int = 0) -> EvalResult:
    """Distance moments Delta_n(s) via the closed relations in B_2..B_5
    (``auto`` is the relation)."""
    if n < 1 or n > 5:
        raise DomainError(f"Delta relations wired for n = 1..5, not {n}")
    for j in range(0, 9, 2):
        if s + j in (-1.0, -2.0, -3.0, -4.0, -5.0) and s + j == -(min(n, j // 2 + 1)):
            raise PoleError(f"shifted argument s+{j} hits a pole")
    if method == "oracle":
        r = qd.cube_integral(n, "Delta", s, max(tol, 1e-6), seed=seed)
        return EvalResult(r.value, r.abs_err_est, "oracle",
                          {"qmc_points": r.diagnostics.get("points_per_shift")})
    if method not in ("auto", "relation"):
        raise MethodUnavailable(f"unknown delta method {method!r}")
    const, terms = delta_b_terms(n, s)
    total = const
    err = 1e-14
    for (m, sigma), coef in sorted(terms.items()):
        v, e = _b_for_delta(m, sigma, tol, seed)
        total += coef * v
        err += abs(coef) * e
    return EvalResult(total, err, "relation", {"terms": len(terms)})


def jellium(n: int, method: str = "auto", tol: float = 1e-8,
            seed: int = 0) -> EvalResult:
    """Jellium constant J_n = 2^(n-2) (1 - B_n(2-n)) for n > 2."""
    if n < 3:
        raise DomainError(f"the box relation applies for n >= 3, not {n}")
    if method == "closed" and n == 3:
        v = math.pi / 2.0 + 2.0 - 6.0 * math.atanh(1.0 / math.sqrt(3.0))
        return EvalResult(v, 1e-15, "closed", {})
    if method in ("auto", "oracle"):
        b = box_b(n, 2.0 - n, "oracle", tol, seed)
    elif method == "contour":
        b = box_b(n, 2.0 - n, "contour", tol / 2.0 ** (n - 2), seed)
    else:
        raise MethodUnavailable(f"unknown jellium method {method!r}")
    scale = 2.0 ** (n - 2)
    return EvalResult(scale * (1.0 - b.value), scale * b.abs_err_est,
                      b.method, {"box_method": b.method})


# ---------------------------------------------------------------------------
# Ising catalog entries


def _c1_closed(k: float) -> float:
    return math.sqrt(math.pi) * 2.0 ** (1.0 - k) \
        * math.gamma((k + 1.0) / 2.0) / math.gamma(k / 2.0 + 1.0)


def _c2_closed(k: float) -> float:
    return math.gamma((k + 1.0) / 2.0) ** 4 / math.gamma(k + 1.0) ** 2


def c31_closed(tol: float = 1e-15) -> complex:
    """The dilogarithm/trigamma closed form of the third Ising moment."""
    w = (1.0 + 1j * math.sqrt(3.0)) / 4.0
    li = hf.dilog(w.conjugate(), 1e-16) - hf.dilog(w, 1e-16)
    val = (6j * math.sqrt(3.0) * li + math.pi * math.sqrt(3.0) * math.log(4.0)
           - hf.polygamma(1, 1.0 / 3.0) + hf.polygamma(1, 2.0 / 3.0)) * 2.0 / 27.0
    return val


_C4_TABLE = {1: (F(7, 12), F(0)), 3: (F(7, 1152), F(-6, 1152)),
             5: (F(49, 368640), F(-54, 368640)), 7: (F(63, 15482880), F(-74, 15482880))}


def _ising_closed(n: int, k: int, tol: float) -> EvalResult:
    if n == 1:
        return EvalResult(_c1_closed(k), 1e-15, "closed", {})
    if n == 2:
        return EvalResult(_c2_closed(k), 1e-15, "closed", {})
    if n == 3 and k == 1:
        v = c31_closed(tol * 1e-2)
        return EvalResult(v.real, 1e-13, "closed",
                          {"imag_residual": abs(v.imag)})
    if n == 4 and k in _C4_TABLE:
        a, b = _C4_TABLE[k]
        return EvalResult(float(a) * hf.ZETA3 + float(b), 1e-15, "closed",
                          {"zeta3_coeff": str(a), "rational": str(b)})
    raise NoClosedForm(f"no closed form for C_{{{n},{k}}}")


def ising_c(n: int, k: int, method: str = "auto", tol: float = 1e-8,
            seed: int = 0) -> EvalResult:
    """Ising moments C_{n,k} = 2^(n-k+1)/(n! k!) int t^k K0^n dt, n <= 5."""
    if not 1 <= n <= 5 or k < 0:
        raise DomainError(f"need 1 <= n <= 5 and k >= 0, not n={n}, k={k}")
    if method == "auto":
        return _first_route(("closed", "contour", "oracle"),
                            lambda m: ising_c(n, k, m, tol, seed))
    if method == "closed":
        return _ising_closed(n, k, tol)
    if method == "contour":
        if n in (1, 2):
            raise MethodUnavailable("n = 1, 2 are closed-form/oracle entries")
        r = ml.eval_contour(ising_mb(n), {"k": float(k)}, tol=tol)
        return r
    if method == "series":
        if n not in (3, 4, 5):
            raise MethodUnavailable("series path applies to the MB entries n>=3")
        mb = ising_mb(n)
        return ch.eval_mb_series(mb, {"k": k}, tol)
    if method == "oracle":
        r = qd.bessel_moment(n, k, min(tol, 1e-11))
        scale = 2.0 ** (n - k + 1) / (math.factorial(n) * math.factorial(k))
        return EvalResult(scale * r.value, scale * r.abs_err_est, "oracle",
                          {"moment": r.value, "evals": r.evals})
    raise MethodUnavailable(f"unknown method {method!r}")


def _ising_param_check(n: int, exponents: Sequence[float]):
    if len(exponents) != n:
        raise DomainError(f"need {n} exponents, not {len(exponents)}")
    if any(e <= 0 for e in exponents):
        raise DomainError("exponents must be positive")


def _ising_param_degenerate(n: int, k, exponents) -> bool:
    """Exact test: two pole families of the derived MB collide."""
    mb = ising_param_mb(n)
    vals = {"k": F(k)}
    for nm, e in zip(_PARAM_NAMES[n], exponents):
        vals[nm] = _exact(e)
    args = []
    for g in mb.gammas:
        if g.mult <= 0:
            continue
        args.append((g.arg.coeff("z"), g.arg.without(("z",)).evaluate(vals)))
    for i in range(len(args)):
        for j in range(i + 1, len(args)):
            zi, bi = args[i]
            zj, bj = args[j]
            if zi == zj and (bi - bj).denominator == 1:
                return True
    return False


def ising_c_param(n: int, k: int, exponents: Sequence[float],
                  method: str = "auto", tol: float = 1e-8) -> EvalResult:
    """Exponent-generalized Ising integrals for n = 3, 4.

    The MB representations are re-derived from the definition; the printed forms
    in the source material carry typos and are not used.
    """
    if n not in (3, 4):
        raise DomainError(f"parametrized entries exist for n = 3, 4, not {n}")
    _ising_param_check(n, exponents)
    names = _PARAM_NAMES[n]
    pv = {"k": float(k)}
    pv.update({nm: float(e) for nm, e in zip(names, exponents)})
    if method == "auto":
        return _first_route(("contour", "oracle"),
                            lambda m: ising_c_param(n, k, exponents, m, tol))
    if method == "contour":
        return ml.eval_contour(ising_param_mb(n), pv, tol=tol)
    if method == "series":
        if _ising_param_degenerate(n, k, exponents):
            raise DegenerateParameters(
                "pole families collide at this exponent point; use the contour")
        mb = ising_param_mb(n)
        pv_exact = {"k": F(k)}
        pv_exact.update({nm: _exact(e) for nm, e in zip(names, exponents)})
        try:
            return ch.eval_mb_series(mb, pv_exact, tol)
        except ResonantLattice as exc:
            raise DegenerateParameters(str(exc)) from None
    if method == "closed":
        if n != 3:
            raise NoClosedForm("the two-term regularized-4F3 form exists for n=3")
        al, be, ga = (float(e) for e in exponents)
        if float(ga) == round(ga):
            raise DegenerateParameters(
                "integer third exponent: removable csc singularity; use the contour")
        return EvalResult(_c3_param_closed(float(k), al, be, ga, tol * 1e-2),
                          tol * 0.1, "closed", {})
    if method == "oracle":
        if sum(float(e) for e in exponents) >= k + 1:
            raise DomainError(
                "defining integral diverges (sum of exponents >= k+1); "
                "the MB value is its analytic continuation")
        return _ising_param_oracle(n, float(k), [float(e) for e in exponents], tol)
    raise MethodUnavailable(f"unknown method {method!r}")


def _c3_param_closed(k: float, al: float, be: float, ga: float,
                     tol: float = 1e-12) -> float:
    """Two-term regularized-4F3(1/4) closed form (parameters re-derived from the
    corrected MB; the printed variant does not match the definition integral)."""

    def side(g: float) -> float:
        a = [(k + 1 + al + be - g) / 2.0, (k + 1 - al + be - g) / 2.0,
             (k + 1 + al - be - g) / 2.0, (k + 1 - al - be - g) / 2.0]
        b = [(k + 1 - g) / 2.0, (k + 2 - g) / 2.0, 1.0 - g]
        prod = 1.0
        for ai in a:
            prod *= gamma_signed(ai)
        return 2.0 ** (g - k) * prod * hf.pfq(a, b, 0.25, tol, regularized=True)

    pref = math.pi ** 1.5 / (2.0 * math.gamma(k + 1.0) * math.sin(math.pi * ga))
    return pref * (side(ga) - side(-ga))


def _kn_bessel(nu: float, t: np.ndarray) -> np.ndarray:
    x, w = hf.gauss_legendre(80)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    umax = np.arccosh(np.maximum((55.0 + 10.0 * abs(nu)) / t, 1.5))
    for flo, fhi in ((0.0, 0.15), (0.15, 0.35), (0.35, 0.6), (0.6, 1.0)):
        lo = umax * flo
        hi = umax * fhi
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * x[None, :]
        out += half * np.sum(np.exp(-t[:, None] * np.cosh(u))
                             * np.cosh(nu * u) * w[None, :], axis=1)
    return out


def _ising_param_oracle(n: int, k: float, exps: list[float],
                        tol: float) -> EvalResult:
    """1-D Bessel-product oracle: (2^n/k!) int s^k prod K_{e_i}(2s) ds."""
    rho = k + 1.0 - sum(exps)
    tmin = -(50.0 + 8.0) / max(rho, 0.05)
    x, w = hf.gauss_legendre(70)
    edges = np.linspace(tmin, 3.6, 13)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid + half * x
        sv = np.exp(t)
        f = sv ** (k + 1.0)
        for e in exps:
            f = f * _kn_bessel(e, 2.0 * sv)
        total += half * float(np.dot(w, f))
    val = 2.0 ** n / math.gamma(k + 1.0) * total
    return EvalResult(val, max(abs(val) * 1e-12, 1e-13), "oracle",
                      {"representation": "bessel-K product"})


def c5_param(k: int, alpha: float, beta: float, method: str = "auto",
             tol: float = 1e-8) -> EvalResult:
    """C_{5,k}(alpha, beta); alpha = beta = 1 recovers C_{5,k} (contour only:
    the residue series does not converge there, which is reported as no-cover)."""
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha, beta must be positive")
    if k < 0:
        raise DomainError(f"need k >= 0, not {k}")
    pv = {"k": float(k), "alpha": float(alpha), "beta": float(beta)}
    if method in ("auto", "contour"):
        return ml.eval_contour(c5_param_mb(), pv, tol=tol)
    if method == "series":
        pv_exact = {"k": F(k), "alpha": _exact(alpha), "beta": _exact(beta)}
        return ch.eval_mb_series(c5_param_mb(), pv_exact, tol)
    if method == "oracle":
        if alpha != 1.0 or beta != 1.0:
            raise MethodUnavailable("the Bessel-moment oracle exists at alpha=beta=1")
        return ising_c(5, k, "oracle", tol)
    raise MethodUnavailable(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# H1 / H


def h1(a: float, b: float, method: str = "auto", tol: float = 1e-8) -> EvalResult:
    """H1(a,b) = int_0^inf K0(a x) K0(b x) dx."""
    if a <= 0 or b <= 0:
        raise DomainError("a, b must be positive")
    if method in ("auto", "closed"):
        m = 1.0 - a * a / (b * b)
        v = math.pi * math.sqrt(a * a / (b * b)) * hf.ellipk(m) / (2.0 * a)
        return EvalResult(v, 1e-14, "closed", {})
    if method == "contour":
        return ml.eval_contour(h1_mb(), {"a": a, "b": b}, tol=tol)
    if method == "series":
        return ch.eval_mb_series(h1_mb(), {"a": _exact(a), "b": _exact(b)}, tol)
    if method == "oracle":
        def f(x):
            return hf.besselk0_vec(a * x) * hf.besselk0_vec(b * x)
        lo = 1e-4
        q = qd.quad_1d(f, (lo, 60.0 / min(a, b)), tol * 0.1)
        # short-interval head from K0 ~ -(ln(t/2)+gamma): quadratic log cell
        from .quadrature import _int_tk_logj, _k0_short_expansion
        head = 0.0
        la, lb = math.log(a), math.log(b)
        pa = {(p, l): c * a ** (2 * p) for (p, l), c in _k0_short_expansion().items()}
        pb = {(p, l): c * b ** (2 * p) for (p, l), c in _k0_short_expansion().items()}
        # K0(a x) has ln x with offset ln a; fold offsets into the (0,0) term
        pa = {(p, 0): pa.get((p, 0), 0.0) + pa.get((p, 1), 0.0) * la for p in (0, 1, 2)} \
            | {(p, 1): pa[(p, 1)] for p in (0, 1, 2) if (p, 1) in pa}
        pb = {(p, 0): pb.get((p, 0), 0.0) + pb.get((p, 1), 0.0) * lb for p in (0, 1, 2)} \
            | {(p, 1): pb[(p, 1)] for p in (0, 1, 2) if (p, 1) in pb}
        prod: dict = {}
        for (p1, l1), c1 in pa.items():
            for (p2, l2), c2 in pb.items():
                if p1 + p2 <= 2:
                    key = (p1 + p2, l1 + l2)
                    prod[key] = prod.get(key, 0.0) + c1 * c2
        for (p, l), c in prod.items():
            head += c * _int_tk_logj(2.0 * p, l, lo)
        return EvalResult(q.value + head, q.abs_err_est + 1e-12, "oracle",
                          {"evals": q.evals})
    raise MethodUnavailable(f"unknown method {method!r}")


def h_of_a(a: float, method: str = "auto", tol: float = 1e-8) -> EvalResult:
    """H(a) = H1(a, a) = pi^2/(4a)."""
    if method in ("auto", "closed"):
        return EvalResult(math.pi ** 2 / (4.0 * a), 1e-15, "closed", {})
    return h1(a, a, method, tol)


# ---------------------------------------------------------------------------
# Ruby's detector integral


def ruby(l: int, d: float, a_list: Sequence[float], r_list: Sequence[float],
         method: str = "auto", tol: float = 1e-10) -> EvalResult:
    """S = int_0^inf k^l e^{-kd} prod J_{a_j}(k R_j) dk.

    series: Lauricella F_C closed form, valid for sum|R_j| < d.
    ac-series: the N=1 continuation series, valid for R > d.
    oracle: damped adaptive quadrature (integer orders).
    """
    if d <= 0:
        raise DomainError("d must be positive")
    if len(a_list) != len(r_list):
        raise DomainError(f"{len(a_list)} Bessel orders for {len(r_list)} radii")
    if l + sum(a_list) <= -1:
        raise DomainError("integral diverges at k = 0")
    if method == "auto":
        method = "series" if sum(abs(r) for r in r_list) < d else "oracle"
    if method == "series":
        if sum(abs(r) for r in r_list) >= d:
            raise OutsideROC("F_C series requires sum |R_j| < d")
        nn = len(a_list)
        asum = sum(a_list) / 2.0
        g1 = asum + (l + 1) / 2.0
        g2 = asum + l / 2.0 + 1.0
        pref = (1.0 / math.sqrt(math.pi)) * (2.0 / d) ** l * (1.0 / d) \
            * math.gamma(g1) * math.gamma(g2)
        for aj, rj in zip(a_list, r_list):
            pref *= (rj / d) ** aj / math.gamma(aj + 1.0)
        xs = [-(rj / d) ** 2 for rj in r_list]
        fc = hf.lauricella_fc(g1, g2, [aj + 1.0 for aj in a_list], xs, tol * 0.1)
        return EvalResult(pref * fc, max(abs(pref * fc) * 1e-12, tol * 0.1),
                          "series", {})
    if method == "ac-series":
        if len(a_list) != 1:
            raise MethodUnavailable("continuation series wired for N = 1")
        if r_list[0] <= d:
            raise OutsideROC("continuation series requires R > d")
        return EvalResult(_ruby_ac_n1(l, d, a_list[0], r_list[0], tol),
                          tol * 0.1, "ac-series", {})
    if method == "oracle":
        for aj in a_list:
            if aj != int(aj) or aj < 0:
                raise MethodUnavailable("oracle path uses integer Bessel orders")

        def f(kk):
            kk = np.asarray(kk, dtype=float)
            out = kk ** float(l) * np.exp(-kk * d)
            for aj, rj in zip(a_list, r_list):
                out = out * np.array([hf.besselj(int(aj), rj * t) for t in kk])
            return out

        hi = (50.0 + 5 * abs(l)) / d
        q = qd.quad_1d(f, (0.0, hi), tol * 0.1)
        return EvalResult(q.value, q.abs_err_est, "oracle", {"evals": q.evals})
    raise MethodUnavailable(f"unknown method {method!r}")


def _ruby_ac_n1(l: int, d: float, a: float, r: float, tol: float) -> float:
    # continuation series with the Bessel index dependent: sum over the
    # exponential index only, terms in (d/R)^m
    total = 0.0
    prev = None
    streak = 0
    for m in range(100000):
        num = math.gamma((m + l + 1.0 + a) / 2.0)
        den_arg = (a - m - l + 1.0) / 2.0
        if den_arg <= 0 and den_arg == math.floor(den_arg):
            term = 0.0
        else:
            term = ((-1.0) ** m / math.factorial(m)) * d ** m \
                * 2.0 ** (m + l + 1.0) * r ** (-(m + l + 1.0)) \
                * num / gamma_signed(den_arg) * 0.5
        total += term
        if prev is not None and term != 0.0 and prev != 0.0:
            ratio = abs(term / prev)
            if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) < tol:
                streak += 1
                if streak >= 3:
                    return total
            else:
                streak = 0
        if term != 0.0:
            prev = term
    return total


def ruby_disk(d: float, r_detector: float, r_source: float,
              method: str = "auto", tol: float = 1e-10) -> EvalResult:
    """Ruby's solid-angle formula D = (R_d/R_s) S(l=-1, d, [1,1], [R_d,R_s])."""
    s = ruby(-1, d, [1, 1], [r_detector, r_source], method, tol)
    scale = r_detector / r_source
    return EvalResult(scale * s.value, scale * s.abs_err_est, s.method,
                      s.diagnostics)


# ---------------------------------------------------------------------------
# the registry: each record is one CLI subcommand, its evaluation and its rows
# of ``mbeval verify``


def parse_rational(text: str) -> float:
    """A rational flag value ("3/2", "-0.5", "1e-3") as the nearest float."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"not a rational number: {text!r}") from None


def parse_rationals(text: str) -> list[float]:
    """Comma-separated rational flag values; the empty string is no values."""
    return [parse_rational(x) for x in text.split(",")] if text else []


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog entry; ``id`` is also its CLI subcommand.

    flags: (name, parser) or (name, parser, default) in report order.
    evaluate: fn(params, method, tol, seed) -> EvalResult.  It looks the
        catalog functions up in this module when called, so patching
        ``catalog.<function>`` reaches it.
    verify: rows (params, methods, suite, tol_floor); suite is "all" or
        "full", and the methods run at max(tol, tol_floor).
    """
    id: str
    flags: tuple
    evaluate: object
    verify: tuple


REGISTRY = (
    CatalogEntry(
        "h1", (("a", parse_rational), ("b", parse_rational)),
        lambda p, m, tol, seed: h1(p["a"], p["b"], m, tol),
        (({"a": 1.0, "b": 2.0}, ("closed", "contour", "oracle"), "all", 0.0),
         ({"a": 1.0, "b": 0.5}, ("closed", "contour", "series"), "all", 0.0))),
    CatalogEntry(
        "ising", (("n", int), ("k", int)),
        lambda p, m, tol, seed: ising_c(p["n"], p["k"], m, tol, seed),
        (({"n": 1, "k": 3}, ("closed", "oracle"), "all", 0.0),
         ({"n": 2, "k": 1}, ("closed", "oracle"), "all", 0.0),
         ({"n": 3, "k": 1}, ("closed", "contour", "oracle"), "all", 0.0),
         ({"n": 3, "k": 2}, ("contour", "series", "oracle"), "all", 0.0),
         ({"n": 4, "k": 1}, ("closed", "contour", "oracle"), "all", 0.0),
         ({"n": 5, "k": 1}, ("contour", "oracle"), "all", 0.0))),
    CatalogEntry(
        "ising-param", (("n", int), ("k", int), ("exponents", parse_rationals)),
        lambda p, m, tol, seed: ising_c_param(p["n"], p["k"], p["exponents"], m, tol),
        (({"n": 3, "k": 1, "exponents": [0.5, 1.0 / 3.0, 0.25]},
          ("closed", "contour", "series", "oracle"), "all", 0.0),)),
    CatalogEntry(
        "c5", (("k", int), ("alpha", parse_rational), ("beta", parse_rational)),
        lambda p, m, tol, seed: c5_param(p["k"], p["alpha"], p["beta"], m, tol),
        (({"k": 1, "alpha": 0.04, "beta": 0.04}, ("contour", "series"), "all", 0.0),)),
    CatalogEntry(
        "box", (("n", int), ("s", parse_rational)),
        lambda p, m, tol, seed: box_b(p["n"], p["s"], m, tol, seed),
        (({"n": 2, "s": 1.0}, ("closed", "contour", "oracle"), "all", 0.0),
         ({"n": 3, "s": 1.0}, ("contour", "oracle"), "all", 0.0),
         ({"n": 3, "s": -1.0}, ("contour", "oracle"), "all", 0.0),
         ({"n": 4, "s": 1.0}, ("contour", "oracle"), "full", 0.0))),
    CatalogEntry(
        "delta", (("n", int), ("s", parse_rational)),
        lambda p, m, tol, seed: delta(p["n"], p["s"], m, tol, seed),
        (({"n": 1, "s": 1.0}, ("relation", "oracle"), "all", 1e-6),
         ({"n": 2, "s": 1.0}, ("relation", "oracle"), "all", 1e-6),
         ({"n": 3, "s": 1.0}, ("relation", "oracle"), "all", 1e-6),
         ({"n": 4, "s": 1.0}, ("relation", "oracle"), "full", 2e-5),
         ({"n": 5, "s": 2.0}, ("relation", "oracle"), "full", 2e-5))),
    CatalogEntry(
        "jellium", (("n", int),),
        lambda p, m, tol, seed: jellium(p["n"], m, tol, seed),
        (({"n": 3}, ("closed", "contour"), "all", 1e-7),)),
    CatalogEntry(
        "ruby", (("l", int), ("d", parse_rational), ("a", parse_rationals, ""),
                 ("R", parse_rationals, "")),
        lambda p, m, tol, seed: ruby(p["l"], p["d"], p["a"], p["R"], m, tol),
        (({"l": 0, "d": 3.0, "a": [1.0, 1.0], "R": [1.0, 1.0]}, ("series", "oracle"),
          "all", 0.0),
         ({"l": 0, "d": 2.0, "a": [0.0], "R": [1.0]}, ("series", "oracle"), "all", 0.0))),
)


# ---------------------------------------------------------------------------
# Table-1 style rational fit a*zeta(3) + b


def fit_zeta3(value: float, k: int, tol: float = 1e-13, p_cap: int = 4096):
    """Recover rationals (a, b) with value = a zeta(3) + b.

    Scans denominators D = 3 k! 2^j ascending and numerators p = 0..p_cap;
    a hit requires |p zeta3 + q - D value| < 4 D tol, so the caller must supply
    ``value`` at a matching absolute accuracy.  Returns reduced Fractions.
    """
    z3 = hf.ZETA3
    for j in range(2, 15):
        dd = 3 * math.factorial(k) * 2 ** j
        target = dd * value
        thresh = dd * tol * 4.0
        for p in range(0, p_cap + 1):
            q = round(target - p * z3)
            if abs(p * z3 + q - target) < thresh:
                return F(p, dd), F(q, dd)
    raise ValueError("no rational zeta(3) relation found at this precision")
