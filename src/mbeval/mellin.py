"""Mellin-Barnes integrands: construction from bracket series (the modified
method of brackets) and direct numerical evaluation along straight contours.

The contour evaluator integrates along Re z_i = c_i with per-axis Clenshaw-Curtis
panels evaluated as a tensor product (innermost axis fastest), an embedded
half-order rule for the error estimate, and an analytic exponential tail bound
from the gamma-decay envelope |Gamma(x+iy)| ~ e^{-pi |y| / 2}.

Each block of the tensor is an open grid: every factor is evaluated on the
sub-grid of the axes its argument depends on and broadcast, so only factors of
two or more z's cost a log-gamma per node.  A pair Gamma(a)^p Gamma(a+m)^-p
whose exact arguments differ by a positive integer m is folded into the
rational factor prod_{j<m} (a+j)^-p, one complex log instead of two log-gammas.
The contour LP still sees Gamma(a)'s poles; a folded pair adds nothing to the
decay rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .brackets import BracketSeries
from .errors import (InfeasibleContour, NegativeDimension, NoConvergence,
                     SingularElimination)
from .gammafn import clgamma, gammaln_signed
from .result import EvalResult
from .symcore import (GammaFactor, LinearForm, Rational, SingularSystemError,
                      SymbolKind, lin_solve, merge_gammas, rat)


@dataclass(frozen=True)
class MBIntegrand:
    """N-fold MB integrand: prefactor * prod(base^exp) * prod(Gamma(arg)^mult)."""
    zsyms: tuple[str, ...]
    prefactor: Rational
    pref_gammas: tuple[GammaFactor, ...]            # z-free arguments
    base_powers: tuple[tuple[Rational, LinearForm], ...]
    powers: tuple[tuple[str, LinearForm], ...]      # parameter bases
    gammas: tuple[GammaFactor, ...]                 # z-dependent arguments
    params: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.zsyms)

    def numerator_gammas(self) -> list[GammaFactor]:
        return [g for g in self.gammas if g.mult > 0]

    def with_power(self, param: str, exponent: LinearForm) -> "MBIntegrand":
        powers = dict(self.powers)
        powers[param] = powers.get(param, LinearForm.constant(0)) + exponent
        params = self.params if param in self.params else self.params + (param,)
        return MBIntegrand(self.zsyms, self.prefactor, self.pref_gammas,
                           self.base_powers, tuple(sorted(powers.items())),
                           self.gammas, params)

    def canonical_gammas(self) -> list[GammaFactor]:
        return merge_gammas(self.gammas)


@dataclass(frozen=True)
class Contour:
    c: tuple[Fraction, ...]
    margin: Fraction


def derive_mb(series: BracketSeries, contour_vars: Sequence[str],
              zprefix: str = "z") -> MBIntegrand:
    """Eliminate all brackets keeping ``contour_vars`` as MB contour variables.

    Each eliminated index n with solution n* contributes Gamma(-n*)/|det| per the
    phi weight; each retained index becomes a contour variable with its own
    Gamma(-z) factor.
    """
    indices = list(series.indices)
    for v in contour_vars:
        if v not in indices:
            raise ValueError(f"{v!r} is not a summation index of this series")
    dependent = [i for i in indices if i not in set(contour_vars)]
    if len(series.brackets) != len(dependent):
        raise NegativeDimension(
            f"{len(series.brackets)} brackets cannot eliminate {len(dependent)} indices")

    a = [[br.coeff(i) for i in indices] for br in series.brackets]
    b = [-br.without(indices) for br in series.brackets]
    try:
        sol = lin_solve(a, b, indices, dependent)
    except SingularSystemError as e:
        raise SingularElimination(str(e)) from None

    # retained indices become z-symbols
    zsyms = []
    rename: dict[str, LinearForm] = {}
    for j, v in enumerate(contour_vars):
        z = f"{zprefix}{j + 1}" if len(contour_vars) > 1 else zprefix
        series.table.declare(z, SymbolKind.CONTOUR_VARIABLE)
        zsyms.append(z)
        rename[v] = LinearForm.symbol(z)

    subs = {d: f.substitute(rename) for d, f in sol.assignments.items()}
    subs.update(rename)

    gammas = [g.substitute(subs) for g in series.gammas]
    for d in dependent:
        gammas.append(GammaFactor(-subs[d], 1))
    for z in zsyms:
        gammas.append(GammaFactor(-LinearForm.symbol(z), 1))
    gammas = merge_gammas(gammas)

    zset = set(zsyms)
    z_gammas = tuple(g for g in gammas if g.arg.symbols() & zset)
    pref_gammas = tuple(g for g in gammas if not (g.arg.symbols() & zset))

    base_powers = tuple((bb, e.substitute(subs)) for bb, e in series.base_powers)
    base_powers = tuple((bb, e) for bb, e in base_powers
                        if not (e.is_constant() and e.const == 0))
    powers = {}
    for name, e in series.powers:
        powers[name] = e.substitute(subs)
    powers = tuple(sorted((k, v) for k, v in powers.items()
                          if not (v.is_constant() and v.const == 0)))

    params = tuple(series.table.parameters())
    return MBIntegrand(zsyms=tuple(zsyms), prefactor=series.prefactor / sol.det,
                       pref_gammas=pref_gammas, base_powers=base_powers,
                       powers=powers, gammas=z_gammas, params=params)


# ---------------------------------------------------------------------------
# contour selection: exact rational LP, maximize the minimum numerator slack

_BOX = Fraction(100)


def choose_contour(mb: MBIntegrand, param_values: Mapping[str, object] | None = None,
                   pole_shifts: Mapping[LinearForm, int] | None = None) -> Contour:
    """Interior point of {Re(arg) > 0 for all numerator gammas} with maximum
    minimum slack, found by exact vertex enumeration of the small LP.

    ``pole_shifts`` relaxes individual gammas to Re(arg) > -shift, for
    representations whose first ``shift`` poles are accounted for separately.
    """
    params = {k: rat(v) if not isinstance(v, float) else Fraction(v)
              for k, v in (param_values or {}).items()}
    shifts = pole_shifts or {}
    n = mb.dim
    rows = []  # (a_vec, b, margin_row)
    for g in mb.numerator_gammas():
        a_vec = [g.arg.coeff(z) for z in mb.zsyms]
        b_val = rat(g.arg.without(mb.zsyms).evaluate(params)) + rat(shifts.get(g.arg, 0))
        rows.append((a_vec, b_val, True))
    if not rows:
        raise InfeasibleContour("integrand has no numerator gammas")
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append((e, _BOX, False))
        rows.append(([-x for x in e], _BOX, False))

    from itertools import combinations
    from .symcore import mat_inverse

    best: tuple[Fraction, list[Fraction]] | None = None
    m = n + 1
    for subset in combinations(range(len(rows)), m):
        mat = []
        rhs = []
        for idx in subset:
            a_vec, b, has_m = rows[idx]
            mat.append(list(a_vec) + [Fraction(-1) if has_m else Fraction(0)])
            rhs.append(-b)
        try:
            inv, _ = mat_inverse(mat)
        except SingularSystemError:
            continue
        pt = [sum(inv[i][j] * rhs[j] for j in range(m)) for i in range(m)]
        c_vec, margin = pt[:n], pt[n]
        ok = True
        for a_vec, b, has_m in rows:
            lhs = sum(ai * ci for ai, ci in zip(a_vec, c_vec)) + b
            if has_m:
                if lhs < margin:
                    ok = False
                    break
            elif lhs < 0:
                ok = False
                break
        if ok and (best is None or margin > best[0]):
            best = (margin, c_vec)
    if best is None or best[0] <= 0:
        raise InfeasibleContour("no straight contour separates the pole families")
    return Contour(c=tuple(best[1]), margin=best[0])


# ---------------------------------------------------------------------------
# numeric contour evaluation

_CC_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n+1 CC nodes/weights on [-1, 1], n even."""
    if n in _CC_CACHE:
        return _CC_CACHE[n]
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    w = np.zeros(n + 1)
    for i in range(n + 1):
        s = 0.0
        for j in range(1, n // 2 + 1):
            b = 1.0 if j == n // 2 else 2.0
            s += b * math.cos(2.0 * j * math.pi * i / n) / (4.0 * j * j - 1.0)
        c = 1.0 if i in (0, n) else 2.0
        w[i] = c / n * (1.0 - s)
    _CC_CACHE[n] = (x[::-1].copy(), w[::-1].copy())
    return _CC_CACHE[n]


def _fold_gamma_ratios(gammas: Sequence[GammaFactor]
                      ) -> tuple[list[GammaFactor], list[tuple[LinearForm, int, int]]]:
    """Pair Gamma(a)^p with Gamma(a+m)^-p, m a positive integer, exactly.

    Each pair is the rational function prod_{j<m} (a+j)^-p, returned as
    (a, m, p); the factors left unpaired keep their order.
    """
    rest = list(gammas)
    pairs = []
    i = 0
    while i < len(rest):
        for j in range(i + 1, len(rest)):
            lo, hi = rest[i], rest[j]
            if hi.mult != -lo.mult:
                continue
            d = hi.arg - lo.arg
            if not d.is_constant() or d.const.denominator != 1 or d.const == 0:
                continue
            if d.const < 0:
                lo, hi = hi, lo
            pairs.append((lo.arg, abs(int(d.const)), lo.mult))
            del rest[j], rest[i]
            break
        else:
            i += 1
    return rest, pairs


class _NumericIntegrand:
    """Parameter-substituted MB integrand evaluated in log space."""

    def __init__(self, mb: MBIntegrand, param_values: Mapping[str, float]):
        self.dim = mb.dim
        vals = {k: float(v) for k, v in param_values.items()}
        self.log_pref = math.log(abs(float(mb.prefactor)))
        self.sign = 1.0 if mb.prefactor > 0 else -1.0
        for g in mb.pref_gammas:
            x = float(g.arg.evaluate(vals))
            lg, sg = gammaln_signed(x)
            self.log_pref += g.mult * lg
            if sg < 0 and g.mult % 2 != 0:
                self.sign = -self.sign
        # z-dependent pieces: gamma factors (b0, coefs, mult) and folded
        # pairs (b0, coefs, m, p), the argument being b0 + coefs . z
        self.gamma_terms = []
        self.ratio_terms = []
        unpaired, pairs = _fold_gamma_ratios(mb.gammas)
        for g in unpaired:
            b0, coefs = self._split(g.arg, mb.zsyms, vals)
            self.gamma_terms.append((b0, coefs, g.mult))
        for arg, m, p in pairs:
            b0, coefs = self._split(arg, mb.zsyms, vals)
            self.ratio_terms.append((b0, coefs, m, p))
        self.pow_terms = []
        for name, e in mb.powers:
            self.pow_terms.append((math.log(vals[name]), *self._split(e, mb.zsyms, vals)))
        for base, e in mb.base_powers:
            self.pow_terms.append((math.log(float(base)), *self._split(e, mb.zsyms, vals)))

    @staticmethod
    def _split(form: LinearForm, zsyms, vals) -> tuple[float, np.ndarray]:
        """(value of the z-free part, coefficient vector over zsyms)."""
        coefs = np.array([float(form.coeff(z)) for z in zsyms])
        return float(form.without(zsyms).evaluate(vals)), coefs

    def axis_decay(self, i: int) -> float:
        """Exponential decay rate along Im z_i (Stirling envelope)."""
        kappa = 0.0
        for _, coefs, mult in self.gamma_terms:
            kappa += mult * abs(coefs[i])
        return 0.5 * math.pi * kappa

    def log_value(self, zs: Sequence[np.ndarray]) -> np.ndarray:
        """Log of the integrand on the broadcast of ``zs``.  With open grids
        (one axis each) every factor runs on the sub-grid of its own axes."""
        def affine(b0, coefs):
            return b0 + sum(c * z for c, z in zip(coefs, zs) if c != 0.0)

        lg = np.zeros(np.broadcast_shapes(*(np.shape(z) for z in zs)), dtype=complex)
        for b0, coefs, mult in self.gamma_terms:
            lg = lg + mult * clgamma(affine(b0, coefs))
        for b0, coefs, m, p in self.ratio_terms:
            a = affine(b0, coefs)
            prod = a
            for j in range(1, m):
                prod = prod * (a + j)
            lg = lg - p * np.log(prod)
        for lb, e0, coefs in self.pow_terms:
            lg = lg + lb * affine(e0, coefs)
        return lg + self.log_pref

    def value(self, zs) -> np.ndarray:
        return self.sign * np.exp(self.log_value(zs))


_PANEL_CAP = 1.25  # gamma-product phase oscillates on an O(1) scale along Im z


def _panel_edges(width_hint: float, t_max: float) -> list[float]:
    edges = [0.0]
    w = max(min(width_hint, _PANEL_CAP), 1e-3)
    x = w
    while x < t_max:
        edges.append(x)
        x = x + min(x, _PANEL_CAP)
    edges.append(t_max)
    return edges


def _axis_panels(edges: list[float], order: int, mirrored: bool):
    """Per-panel (nodes, full weights, embedded low-order weights, |y| at inner edge).

    Mirrored axes list the negative-half panels first (outermost in).
    """
    x_full, w_full = _clenshaw_curtis(order)
    x_low, w_low = _clenshaw_curtis(order // 2)
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid + half * x_full
        wf = half * w_full
        wl = np.zeros(order + 1)
        wl[::2] = half * w_low
        panels.append((nodes, wf, wl, lo))
    if mirrored:
        mirrored_panels = [(-nd[::-1], wf[::-1], wl[::-1], lo)
                           for nd, wf, wl, lo in reversed(panels)]
        panels = mirrored_panels + panels
    return panels


DEFAULT_MAX_NODES = 60_000_000


def eval_contour(mb: MBIntegrand, param_values: Mapping[str, float],
                 contour: Contour | None = None, tol: float = 1e-8,
                 max_nodes: int | None = None) -> EvalResult:
    """Value of the N-fold MB integral along Re z = c by iterated panel quadrature.

    Parameters raised to complex powers must be positive reals.  The returned
    abs_err_est combines the embedded-rule estimate with the analytic tail bound.
    """
    if max_nodes is None:
        max_nodes = DEFAULT_MAX_NODES
    if contour is None:
        contour = choose_contour(mb, param_values)
    f = _NumericIntegrand(mb, param_values)
    ndim = f.dim
    cs = [float(c) for c in contour.c]

    kappas = []
    for i in range(ndim):
        k = f.axis_decay(i)
        if k <= 0:
            raise NoConvergence(f"no gamma decay along axis {i}")
        kappas.append(k)

    # initial half-width per axis from the decay envelope at the contour point
    mags = abs(f.value([np.array([complex(c)]) for c in cs]))[0]
    log_scale = math.log(mags) if mags > 0 else 0.0
    t_axes = []
    for i in range(ndim):
        t = max(8.0, (log_scale - math.log(tol * 1e-3)) / kappas[i])
        t_axes.append(t)
    width = float(min(max(contour.margin, Fraction(1, 100)), 2))

    # magnitude scale for skipping far cross-tail blocks of the panel tensor
    log_c0 = float(np.log(np.abs(f.value([np.array([complex(c)]) for c in cs])))[0]) \
        if mags > 0 else 0.0
    order = 16 if tol > 3e-8 else 32
    rounds = 0
    # narrow pole margins alias the embedded error estimate; verify by a
    # cross-round difference before trusting it
    narrow = float(contour.margin) < 0.2
    value_prev = None
    cross = None
    from itertools import product as _product

    while True:
        axes = [_axis_panels(_panel_edges(width, t_axes[i]), order, i != 0)
                for i in range(ndim)]
        skip_log = math.log(tol) - 8.0 - math.log(
            max(np.prod([len(a) for a in axes]), 1.0))

        def _kept(axes_):
            kept = []
            for combo in _product(*axes_):
                log_bound = log_c0
                vol = 1.0
                for i in range(ndim):
                    log_bound -= kappas[i] * combo[i][3]
                    vol *= abs(combo[i][0][-1] - combo[i][0][0]) + 1e-30
                if log_bound + math.log(vol) >= skip_log:
                    kept.append(combo)
            return kept

        blocks = _kept(axes)
        while len(blocks) * (order + 1) ** ndim > max_nodes and order > 16:
            order -= 8
            axes = [_axis_panels(_panel_edges(width, t_axes[i]), order, i != 0)
                    for i in range(ndim)]
            blocks = _kept(axes)
        if len(blocks) * (order + 1) ** ndim > max_nodes:
            raise NoConvergence(
                f"node budget exceeded ({len(blocks) * (order + 1) ** ndim}"
                f" > {max_nodes})")
        acc_full = 0.0 + 0.0j
        acc_low = [0.0 + 0.0j] * ndim
        n_used = 0
        for combo in blocks:
            n_used += (order + 1) ** ndim
            grids = np.meshgrid(*[c[0] for c in combo], indexing="ij", sparse=True)
            zs = [cs[i] + 1j * grids[i] for i in range(ndim)]
            vals = f.value(zs)
            wgrids = np.meshgrid(*[c[1] for c in combo], indexing="ij", sparse=True)
            wprod = wgrids[0]
            for g in wgrids[1:]:
                wprod = wprod * g
            acc_full += np.sum(vals * wprod)
            for i in range(ndim):
                sel = [combo[j][2] if j == i else combo[j][1] for j in range(ndim)]
                wg = np.meshgrid(*sel, indexing="ij", sparse=True)
                wp = wg[0]
                for g in wg[1:]:
                    wp = wp * g
                acc_low[i] += np.sum(vals * wp)
        n_total = n_used

        # conjugate-symmetric doubling over axis 0 (y0 > 0 half only)
        full = acc_full + np.conj(acc_full)
        lows = [al + np.conj(al) for al in acc_low]
        scale = (2.0 * math.pi) ** (-ndim)
        value_c = full * scale
        # embedded half-order difference, with a safety factor for the cases
        # where both rules alias the same oscillation
        err_rule = 8.0 * sum(abs(full - lo) for lo in lows) * scale

        # analytic tail: boundary magnitude times decay length, per axis
        tail = 0.0
        for i in range(ndim):
            probe = [np.array([complex(cs[j], t_axes[i] if j == i else 0.0)])
                     for j in range(ndim)]
            m_edge = float(abs(f.value(probe))[0])
            other = 1.0
            for j in range(ndim):
                if j != i:
                    other *= 2.0 * t_axes[j]
            tail += 2.0 * m_edge / kappas[i] * other * scale

        cross = abs(value_c.real - value_prev) if value_prev is not None else None
        est_ok = err_rule + tail <= tol
        verified = (not narrow) or (cross is not None and cross <= tol)
        if (est_ok and verified) or rounds >= 4:
            break
        value_prev = value_c.real
        rounds += 1
        if tail > tol * 0.5:
            t_axes = [t * 1.5 for t in t_axes]
        if err_rule > tol * 0.5 or (narrow and not verified):
            order = min(order + 16, 96)
            width = width * 0.7

    err = err_rule + tail + (cross if (narrow and cross is not None) else 0.0)
    if err > tol:
        raise NoConvergence(f"contour quadrature error {err:.3e} above tol {tol:.3e}")
    return EvalResult(
        value=float(value_c.real), abs_err_est=float(err), method="contour",
        diagnostics={"nodes": n_total, "t_axes": list(t_axes),
                     "imag_residual": float(abs(value_c.imag)),
                     "contour": [float(c) for c in contour.c]})


def conjugate_symmetry_residual(mb: MBIntegrand, param_values: Mapping[str, float],
                                contour: Contour, n_samples: int = 20,
                                seed: int = 0) -> float:
    """max relative |f(conj z) - conj f(z)| over random contour nodes (diagnostic)."""
    f = _NumericIntegrand(mb, param_values)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        ys = rng.uniform(-5, 5, size=mb.dim)
        z = [np.array([complex(float(c), y)]) for c, y in zip(contour.c, ys)]
        zbar = [np.conj(v) for v in z]
        a = f.value(zbar)[0]
        b = np.conj(f.value(z)[0])
        denom = max(abs(a), abs(b), 1e-300)
        worst = max(worst, abs(a - b) / denom)
    return worst
