"""Residue-series evaluation of MB integrands grouped by convergence cones.

For an N-fold integrand, every choice of N numerator gammas with nonsingular
z-coefficient matrix A defines a pole lattice z(n) = -A^{-1}(b + n), n in N^N.
The residue series over that lattice has terms built from the remaining gamma
factors; coincident hyperplanes raise the pole order, which is handled by
truncated-Taylor (jet) arithmetic.  Every factor of a term is Gamma(v + g.eps)
or p^(g.eps), whose log is a univariate series in the linear form g.eps, so a
higher-order term is the exp of one summed log-jet, built from an index table
per jet shape.  Series are grouped by
whether their asymptotic ratio test accepts the requested parameter direction;
the group covering the direction is summed shell-by-shell with compensated
accumulation.

Exactness discipline: pole locations, pole orders, and resonance detection are
computed in rational arithmetic; only the term values themselves are floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import (JetOrderOverflow, NoCover, NoneNonsingular, ResonantLattice,
                     SlowConvergence)
from .gammafn import gammaln_signed, polygamma
from .mellin import MBIntegrand
from .result import EvalResult
from .symcore import LinearForm, Rational, SingularSystemError, mat_inverse, rat

MAX_JET_ORDER = 4  # default highest jet order a residue term may need


# ---------------------------------------------------------------------------
# jets: dense truncated multivariate Taylor polynomials (tiny shapes)


@lru_cache(maxsize=None)
def _jet_table(shape: tuple[int, ...]):
    """Index tables of a jet of this shape, over its multi-indices alpha in C
    order: alpha, |alpha|, the multinomial |alpha|!/alpha! (the coefficient
    of eps^alpha in (g.eps)^|alpha| is multinomial * g^alpha), and the product
    gather: (a*b).ravel() = append(a.ravel(), 0)[gather] @ b.ravel()."""
    alphas = np.array(list(np.ndindex(shape)))
    degrees = alphas.sum(axis=1)
    multinomials = np.array([math.factorial(int(d)) / math.prod(
        math.factorial(int(a)) for a in al) for d, al in zip(degrees, alphas)])
    # (a*b)[i] = sum_j a[i - j] b[j]; where i - j leaves the jet, the gather
    # reads the zero appended after a's entries
    diff = alphas[:, None, :] - alphas[None, :, :]
    flat = np.ravel_multi_index(tuple(np.moveaxis(np.maximum(diff, 0), 2, 0)), shape)
    gather = np.where((diff >= 0).all(axis=2), flat, len(alphas))
    return alphas, degrees, multinomials, gather


def _jet_exp(a: np.ndarray) -> np.ndarray:
    """exp of a jet with zero constant term."""
    mat = np.append(a.ravel(), 0.0)[_jet_table(a.shape)[3]]
    term = np.zeros(a.size)
    term[0] = 1.0
    out = term.copy()
    for m in range(1, sum(s - 1 for s in a.shape) + 1):
        term = mat @ term / m
        out += term
    return out.reshape(a.shape)


# the log series of a gamma factor to degree r needs psi^(r-1); polygamma
# stops at psi^(4)
_MAX_LOG_ORDER = 5
# log(sin y / y) = sum_r _LOG_SINC[r] y^r, to degree _MAX_LOG_ORDER
_LOG_SINC = (0.0, 0.0, -1.0 / 6.0, 0.0, -1.0 / 180.0, 0.0)


# ---------------------------------------------------------------------------
# pole subsets and residue series


@dataclass(frozen=True)
class PoleSubset:
    gamma_ids: tuple[int, ...]
    a_rows: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[LinearForm, ...]     # z-free parts of the selected args
    a_inv: tuple[tuple[Fraction, ...], ...]
    det: Fraction

    @property
    def abs_det(self) -> Fraction:
        return abs(self.det)


def enumerate_pole_subsets(mb: MBIntegrand) -> list[PoleSubset]:
    """All N-subsets of distinct numerator gamma arguments with nonsingular A."""
    n = mb.dim
    nums = [(i, g) for i, g in enumerate(mb.gammas) if g.mult > 0]
    out = []
    for combo in combinations(nums, n):
        rows = []
        offs = []
        for _, g in combo:
            rows.append(tuple(g.arg.coeff(z) for z in mb.zsyms))
            offs.append(g.arg.without(mb.zsyms))
        try:
            inv, det = mat_inverse([list(r) for r in rows])
        except SingularSystemError:
            continue
        out.append(PoleSubset(
            gamma_ids=tuple(i for i, _ in combo),
            a_rows=tuple(rows), offsets=tuple(offs),
            a_inv=tuple(tuple(r) for r in inv), det=det))
    if not out:
        raise NoneNonsingular("no nonsingular pole subset")
    out.sort(key=lambda s: s.gamma_ids)
    return out


_IDX = tuple(f"m{i + 1}" for i in range(8))


@dataclass(frozen=True)
class ResidueSeries:
    subset: PoleSubset
    dim: int
    prefactor: Rational                       # includes 1/|det A|
    pref_gammas: tuple                        # passthrough from the integrand
    z_of_n: tuple[LinearForm, ...]            # over m-symbols and parameters
    term_gammas: tuple[tuple[LinearForm, tuple[Fraction, ...], int], ...]
    # (argument over m+params, eps-gradient, multiplicity)
    term_powers: tuple[tuple[str, LinearForm, tuple[Fraction, ...]], ...]
    term_bases: tuple[tuple[Fraction, LinearForm, tuple[Fraction, ...]], ...]
    pole_order_profile: dict = field(default_factory=dict, compare=False)

    def exponent_matrix(self) -> list[tuple[str, list[Fraction]]]:
        """Per parameter, the n-gradient of its exponent (cone generator data)."""
        out = []
        for name, e, _ in self.term_powers:
            out.append((name, [e.coeff(m) for m in _IDX[:self.dim]]))
        return out


def build_residue_series(mb: MBIntegrand, subset: PoleSubset) -> ResidueSeries:
    n = mb.dim
    msyms = _IDX[:n]
    # z_i(m) = -sum_j A^{-1}[i][j] (offset_j + m_j)
    z_of_n = []
    for i in range(n):
        acc = LinearForm.constant(0)
        for j in range(n):
            inv = subset.a_inv[i][j]
            if inv != 0:
                acc = acc - (subset.offsets[j] + LinearForm.symbol(msyms[j])) * inv
        z_of_n.append(acc)
    zmap = dict(zip(mb.zsyms, z_of_n))

    def grad_of(form: LinearForm) -> tuple[Fraction, ...]:
        alpha = [form.coeff(z) for z in mb.zsyms]
        return tuple(sum(alpha[i] * subset.a_inv[i][j] for i in range(n))
                     for j in range(n))

    gammas = []
    for g in mb.gammas:
        gammas.append((g.arg.substitute(zmap), grad_of(g.arg), g.mult))
    powers = []
    for name, e in mb.powers:
        powers.append((name, e.substitute(zmap), grad_of(e)))
    bases = []
    for b, e in mb.base_powers:
        bases.append((b, e.substitute(zmap), grad_of(e)))

    return ResidueSeries(
        subset=subset, dim=n,
        prefactor=mb.prefactor / subset.abs_det,
        pref_gammas=mb.pref_gammas,
        z_of_n=tuple(z_of_n),
        term_gammas=tuple(gammas),
        term_powers=tuple(powers),
        term_bases=tuple(bases),
    )


# ---------------------------------------------------------------------------
# convergence cones via the asymptotic ratio test (exact breakpoint directions)


@dataclass(frozen=True)
class Cone:
    """Ray-wise convergence test data for one residue series."""
    series_id: int
    directions: tuple[tuple[Fraction, ...], ...]
    c1: tuple[Fraction, ...]       # t log t rate per direction (exact)
    c2_const: tuple[float, ...]    # t rate per direction, parameter-free part
    u_grad: tuple[tuple[float, ...], ...]  # per direction, per-parameter multiplier

    def accepts(self, log_params: Sequence[float], slack: float = 1e-9) -> bool:
        for i in range(len(self.directions)):
            if self.c1[i] < 0:
                continue
            if self.c1[i] > 0:
                return False
            rate = self.c2_const[i] + sum(u * lp for u, lp
                                          in zip(self.u_grad[i], log_params))
            if rate >= -slack:
                return False
        return True


def _test_directions(series: ResidueSeries) -> list[tuple[Fraction, ...]]:
    n = series.dim
    if n == 1:
        return [(Fraction(1),)]
    dirs = {tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)}
    if n == 2:
        # breakpoints where a gamma argument's lattice gradient vanishes
        for arg, _, _ in series.term_gammas:
            a = arg.coeff(_IDX[0])
            b = arg.coeff(_IDX[1])
            if a * b < 0:
                d = (abs(b), abs(a))
                s = d[0] + d[1]
                dirs.add((d[0] / s, d[1] / s))
        dirs.add((Fraction(1, 2), Fraction(1, 2)))
    else:
        # sample interior directions; exact breakpoints are a 2-D luxury
        dirs.add(tuple(Fraction(1, n) for _ in range(n)))
        for i in range(n):
            for j in range(i + 1, n):
                d = [Fraction(0)] * n
                d[i] = d[j] = Fraction(1, 2)
                dirs.add(tuple(d))
    return sorted(dirs)


def _cone_for(series_id: int, series: ResidueSeries,
              param_names: Sequence[str]) -> Cone:
    msyms = _IDX[:series.dim]
    dirs = _test_directions(series)
    c1s, c2s, ugrads = [], [], []
    for d in dirs:
        c1 = Fraction(0)
        c2 = 0.0
        for arg, _, mult in series.term_gammas:
            w = sum(arg.coeff(m) * dv for m, dv in zip(msyms, d))
            if w == 0:
                continue
            s = 1 if w > 0 else -1
            c1 += mult * s * abs(w)
            c2 += mult * s * float(abs(w)) * math.log(float(abs(w)))
        for b, e, _ in series.term_bases:
            w = sum(e.coeff(m) * dv for m, dv in zip(msyms, d))
            c2 += float(w) * math.log(float(b))
        ug = []
        for name in param_names:
            w = 0.0
            for pname, e, _ in series.term_powers:
                if pname == name:
                    w += float(sum(e.coeff(m) * dv for m, dv in zip(msyms, d)))
            ug.append(w)
        c1s.append(c1)
        c2s.append(c2)
        ugrads.append(tuple(ug))
    return Cone(series_id=series_id, directions=tuple(dirs), c1=tuple(c1s),
                c2_const=tuple(c2s), u_grad=tuple(ugrads))


@dataclass(frozen=True)
class ResidueSeriesGroup:
    series: tuple[ResidueSeries, ...]
    cones: tuple[Cone, ...]
    param_names: tuple[str, ...]
    log_params: tuple[float, ...]


def group_by_cones(series_list: Sequence[ResidueSeries],
                   param_values: Mapping[str, float] | None = None,
                   param_names: Sequence[str] | None = None) -> ResidueSeriesGroup:
    """Maximal set of series whose convergence test accepts the parameter point.

    Ties between equally valid groups do not arise under the maximal-set rule;
    member order is the deterministic gamma-id order.
    """
    if not series_list:
        raise NoCover("no residue series to group")
    if param_names is None:
        names = sorted({nm for s in series_list for nm, _, _ in s.term_powers})
    else:
        names = list(param_names)
    vals = dict(param_values or {})
    logs = []
    for nm in names:
        v = float(vals[nm])
        if v <= 0:
            raise ValueError(f"parameter {nm} must be positive for the cone test")
        logs.append(math.log(v))
    chosen_s, chosen_c = [], []
    for i, s in enumerate(series_list):
        cone = _cone_for(i, s, names)
        if cone.accepts(logs):
            chosen_s.append(s)
            chosen_c.append(cone)
    if not chosen_s:
        raise NoCover("no residue series converges at this parameter direction")
    return ResidueSeriesGroup(series=tuple(chosen_s), cones=tuple(chosen_c),
                              param_names=tuple(names), log_params=tuple(logs))


# ---------------------------------------------------------------------------
# term evaluation and lattice summation


def _term_value(series: ResidueSeries, m: tuple[int, ...],
                pvals: Mapping[str, Fraction], log_pref: float, sign_pref: float,
                max_jet: int | None = None):
    """Residue at lattice point m; exact pole-order accounting, float value."""
    n = series.dim
    if max_jet is None:
        max_jet = MAX_JET_ORDER
    env: dict[str, object] = {k: v for k, v in pvals.items()}
    env.update({_IDX[i]: m[i] for i in range(n)})

    factors = []
    q = [0] * n
    for arg, grad, mult in series.term_gammas:
        v = arg.evaluate(env)
        v = v if isinstance(v, Fraction) else Fraction(v)
        singular = v.denominator == 1 and v <= 0
        axis = None
        if singular:
            live = [j for j, g in enumerate(grad) if g != 0]
            if len(live) != 1:
                raise ResonantLattice(
                    f"gamma argument {arg!r} singular with multi-axis gradient at {m}")
            axis = live[0]
            q[axis] += mult
        factors.append((v, grad, mult, axis))
    if any(qi <= 0 for qi in q):
        return 0.0, tuple(q)
    if any(qi > max_jet for qi in q):
        raise JetOrderOverflow(f"pole order {q} exceeds max jet order {max_jet} at {m}")

    log_mag = log_pref
    sign = sign_pref
    for name, e, _ in series.term_powers:
        log_mag += float(e.evaluate(env)) * math.log(float(pvals[name]))
    for b, e, _ in series.term_bases:
        log_mag += float(e.evaluate(env)) * math.log(float(b))
    # plain signed log-gamma product: the whole term at simple poles, the
    # scale of the jet at higher-order ones
    for v, grad, mult, axis in factors:
        if axis is None:
            lg, sg = gammaln_signed(float(v))
            log_mag += mult * lg
            if sg < 0 and mult % 2:
                sign = -sign
        else:
            mu = -int(v)
            g = float(grad[axis])
            log_mag += mult * (-math.lgamma(mu + 1.0) - math.log(abs(g)))
            if (mu % 2 == 1) != (g < 0):
                if mult % 2:
                    sign = -sign
    if all(qi == 1 for qi in q):
        return sign * math.exp(log_mag), tuple(q)

    # higher-order point: each factor is exp(mult * a univariate series in
    # y = grad.eps), so the jet is exp of their sum; residue = coefficient of
    # eps^(q-1)
    order = sum(qi - 1 for qi in q)
    if order > _MAX_LOG_ORDER:
        raise JetOrderOverflow(f"total jet order {order} of pole order {q} exceeds "
                               f"{_MAX_LOG_ORDER} at {m}")
    rows = []
    coefs = np.zeros((len(factors) + 1, order + 1))
    for i, (v, grad, mult, axis) in enumerate(factors):
        rows.append([float(g) for g in grad])
        x = float(v) if axis is None else 1.0 - float(v)
        for r in range(1, order + 1):
            # log Gamma(x + y) - log Gamma(x) = sum_r psi^(r-1)(x) y^r / r!
            c = polygamma(r - 1, x) / math.factorial(r)
            if axis is not None:
                # Gamma(-mu + y) = (-1)^mu / y * (pi y / sin(pi y)) / Gamma(1 + mu - y)
                c = -_LOG_SINC[r] * math.pi ** r - (-1) ** r * c
            coefs[i, r] = mult * c
    # parameter and base powers contribute log(p) * grad.eps
    lin = np.zeros(n)
    for name, e, grad in series.term_powers:
        lin += math.log(float(pvals[name])) * np.array(grad, dtype=float)
    for b, e, grad in series.term_bases:
        lin += math.log(float(b)) * np.array(grad, dtype=float)
    rows.append(lin)
    coefs[-1, 1] = 1.0
    alphas, degrees, multinomials, _ = _jet_table(tuple(q))
    monomials = np.prod(np.array(rows)[:, None, :] ** alphas, axis=2)
    log_jet = multinomials * np.sum(coefs[:, degrees] * monomials, axis=0)
    top = _jet_exp(log_jet.reshape(q))[tuple(qi - 1 for qi in q)]
    return sign * math.exp(log_mag) * top, tuple(q)


def _shell_points(t: int, n: int):
    if n == 1:
        yield (t,)
        return
    for first in range(t + 1):
        for rest in _shell_points(t - first, n - 1):
            yield (first,) + rest


def eval_series(group: ResidueSeriesGroup, param_values: Mapping[str, object],
                tol: float = 1e-10, max_shells: int = 6000,
                max_jet: int | None = None) -> EvalResult:
    """Sum every series of the group over its lattice, shells by total degree."""
    if max_jet is None:
        max_jet = MAX_JET_ORDER
    pvals: dict[str, Fraction] = {}
    for k, v in param_values.items():
        pvals[k] = v if isinstance(v, Fraction) else Fraction(v) if isinstance(v, int) \
            else Fraction(float(v))

    total = 0.0
    comp = 0.0
    terms = 0
    profiles: dict[tuple, int] = {}
    worst_tail = 0.0
    for series in group.series:
        log_pref = math.log(abs(float(series.prefactor)))
        sign_pref = 1.0 if series.prefactor > 0 else -1.0
        for g in series.pref_gammas:
            x = float(g.arg.evaluate(pvals))
            lg, sg = gammaln_signed(x)
            log_pref += g.mult * lg
            if sg < 0 and g.mult % 2:
                sign_pref = -sign_pref
        n = series.dim
        shell_mags = []
        converged = False
        for t in range(max_shells):
            shell_sum = 0.0
            shell_mag = 0.0
            for m in _shell_points(t, n):
                val, prof = _term_value(series, m, pvals, log_pref, sign_pref, max_jet)
                profiles[prof] = profiles.get(prof, 0) + 1
                terms += 1
                y = val - comp
                tt = total + y
                comp = (tt - total) - y
                total = tt
                shell_sum += val
                shell_mag = max(shell_mag, abs(val))
            shell_mags.append(shell_mag)
            if t >= 3:
                prev = max(shell_mags[-3], 1e-300)
                ratio = max(shell_mags[-1] / prev, shell_mags[-1]
                            / max(shell_mags[-2], 1e-300))
                if t > 15 and ratio >= 0.995:
                    raise SlowConvergence(
                        f"shell ratio {ratio:.4f} too close to 1 at shell {t}")
                if ratio < 1.0:
                    tail = shell_mags[-1] * (t + 2) ** (n - 1) * ratio / (1.0 - ratio)
                    if tail < tol * 0.5 and shell_mags[-1] < tol * 0.5:
                        worst_tail = max(worst_tail, tail)
                        converged = True
                        break
        if not converged:
            raise SlowConvergence("shell budget exhausted before tolerance")
    return EvalResult(value=total, abs_err_est=max(worst_tail, 1e-15),
                      method="series",
                      diagnostics={"terms_summed": terms,
                                   "series_count": len(group.series),
                                   "pole_order_profiles": profiles})


def eval_mb_series(mb: MBIntegrand, param_values: Mapping[str, object],
                   tol: float = 1e-10) -> EvalResult:
    """Subset enumeration + grouping + summation in one call."""
    subsets = enumerate_pole_subsets(mb)
    series = [build_residue_series(mb, s) for s in subsets]
    power_params = {nm for s in series for nm, _, _ in s.term_powers}
    group = group_by_cones(series, {k: float(v) for k, v in param_values.items()
                                    if k in power_params})
    full = dict(param_values)
    return eval_series(group, full, tol)
