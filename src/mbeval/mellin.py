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
from functools import reduce
from itertools import combinations, product
from operator import mul
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

_BOX = 100


def choose_contour(mb: MBIntegrand, param_values: Mapping[str, object] | None = None,
                   pole_shifts: Mapping[LinearForm, int] | None = None) -> Contour:
    """Interior point of {Re(arg) > 0 for all numerator gammas} inside the box
    |c_i| <= 100 with maximum minimum slack (the margin).

    Exact vertex enumeration in integers.  A constraint is a row r = (A, -M, B):
    a gamma's a.c + b >= margin times the lcm M of its denominators (M = 0 on
    the box).  Each subset of n+1 rows, in ``combinations`` order, is made
    tight; its vertex v = (N, m, D), D > 0, means c = N/D and margin = m/D,
    and is feasible when r.v >= 0 for every row.  The first feasible vertex of
    largest margin wins, so a vertex whose margin is not above the best so far
    is not scanned.  Subsets with the same first n rows share one
    fraction-free solve of those rows.

    ``pole_shifts`` {arg: k} keeps -k < Re(arg) < -k+1, for representations
    whose first k poles of Gamma(arg) are accounted for separately.
    """
    params = {k: rat(v) if not isinstance(v, float) else Fraction(v)
              for k, v in (param_values or {}).items()}
    shifts = pole_shifts or {}
    n = mb.dim
    rows = []
    for g in mb.numerator_gammas():
        a_vec = [g.arg.coeff(z) for z in mb.zsyms]
        b_val = rat(g.arg.without(mb.zsyms).evaluate(params))
        k = shifts.get(g.arg, 0)
        rows.append(_margin_row(a_vec, b_val + k))
        if k >= 1:
            rows.append(_margin_row([-a for a in a_vec], -b_val - k + 1))
    if not rows:
        raise InfeasibleContour("integrand has no numerator gammas")
    rows += [tuple(sign * (j == i) for j in range(n)) + (0, _BOX)
             for i in range(n) for sign in (1, -1)]

    best = None
    for head in combinations(range(len(rows)), n):
        basis = _null_basis([rows[i] for i in head], n + 2)
        if basis is None:
            continue
        u, w = basis
        for r in rows[head[-1] + 1 if head else 0:]:
            x, y = sum(map(mul, r, w)), sum(map(mul, r, u))
            v = [x * ui - y * wi for ui, wi in zip(u, w)]
            if v[n + 1] < 0:
                v = [-t for t in v]
            if v[n + 1] and (best is None or v[n] * best[n + 1] > best[n] * v[n + 1]) \
                    and all(sum(map(mul, r, v)) >= 0 for r in rows):
                best = v
    if best is None or best[n] <= 0:
        raise InfeasibleContour("no straight contour separates the pole families")
    d = best[n + 1]
    return Contour(c=tuple(Fraction(x, d) for x in best[:n]),
                   margin=Fraction(best[n], d))


def _margin_row(a_vec: Sequence[Fraction], b: Fraction) -> tuple[int, ...]:
    """a.c + b - margin >= 0 as the integer row (A, -M, B)."""
    m = math.lcm(b.denominator, *(a.denominator for a in a_vec))
    return tuple(int(a * m) for a in a_vec) + (-m, int(b * m))


def _null_basis(rows: Sequence[Sequence[int]], width: int) -> list[list[int]] | None:
    """Two integer vectors spanning the null space of n rows of length n+2,
    or None when the rows have rank < n.  Fraction-free (Bareiss) Gauss-Jordan
    elimination: every entry stays an integer minor, so each division is
    exact, and every pivot ends equal to the last one."""
    a = [list(r) for r in rows]
    pivots = []
    prev = 1
    for k in range(len(a)):
        rk = a[k]
        col = next((j for j, x in enumerate(rk) if x), None)
        if col is None:
            return None
        p = rk[col]
        for i, ri in enumerate(a):
            if i != k:
                f = ri[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        pivots.append(col)
        prev = p
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        v = [prev * (j == free) for j in range(width)]
        for col, r in zip(pivots, a):
            v[col] = -r[free]
        basis.append(v)
    return basis


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
    """One axis's panels stacked: (nodes, full weights, embedded low-order
    weights), each of shape (panels, order+1), and |y| at each inner edge.

    Mirrored axes list the negative-half panels first (outermost in).
    """
    x_full, w_full = _clenshaw_curtis(order)
    x_low, w_low = _clenshaw_curtis(order // 2)
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    mid, half = (0.5 * (lo + hi))[:, None], (0.5 * (hi - lo))[:, None]
    nodes = mid + half * x_full
    wf = half * w_full
    wl = np.zeros_like(wf)
    wl[:, ::2] = half * w_low
    inner = list(edges[:-1])
    if mirrored:
        nodes = np.concatenate([-nodes[::-1, ::-1], nodes])
        wf = np.concatenate([wf[::-1, ::-1], wf])
        wl = np.concatenate([wl[::-1, ::-1], wl])
        inner = inner[::-1] + inner
    return nodes, wf, wl, inner


DEFAULT_MAX_NODES = 60_000_000

# Nodes per integrand call: enough blocks to amortize the per-call cost of
# clgamma, few enough that the chunk's tensors stay small.
_CHUNK_NODES = 4096


def eval_contour(mb: MBIntegrand, param_values: Mapping[str, float],
                 contour: Contour | None = None, tol: float = 1e-8,
                 max_nodes: int | None = None) -> EvalResult:
    """Value of the N-fold MB integral along Re z = c by iterated panel quadrature.

    Parameters raised to complex powers must be positive reals.  The returned
    abs_err_est combines the embedded-rule estimate with the analytic tail bound.

    The kept panel blocks are evaluated in chunks of consecutive blocks, one
    integrand call per chunk on a (blocks, order+1, ...) open grid.  Each
    block's weighted sum is still taken on its own and added in block order,
    so the result does not depend on the chunk size.
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
    abs_c = np.abs(f.value([np.array([complex(c)]) for c in cs]))
    mags = abs_c[0]
    log_scale = math.log(mags) if mags > 0 else 0.0
    t_axes = []
    for i in range(ndim):
        t = max(8.0, (log_scale - math.log(tol * 1e-3)) / kappas[i])
        t_axes.append(t)
    width = float(min(max(contour.margin, Fraction(1, 100)), 2))

    # magnitude scale for skipping far cross-tail blocks of the panel tensor
    log_c0 = float(np.log(abs_c)[0]) if mags > 0 else 0.0
    order = 16 if tol > 3e-8 else 32
    rounds = 0
    # narrow pole margins alias the embedded error estimate; verify by a
    # cross-round difference before trusting it
    narrow = float(contour.margin) < 0.2
    value_prev = None
    cross = None

    def panels_and_blocks(order_):
        """Each axis's panels and the (blocks, ndim) panel indices kept."""
        axes_ = [_axis_panels(_panel_edges(width, t_axes[i]), order_, i != 0)
                 for i in range(ndim)]
        skip_log = math.log(tol) - 8.0 - math.log(
            max(np.prod([len(a[3]) for a in axes_]), 1.0))
        # per panel: the decay exponent at its inner edge and its width
        decay = [[kappas[i] * lo for lo in axes_[i][3]] for i in range(ndim)]
        widths = [(np.abs(a[0][:, -1] - a[0][:, 0]) + 1e-30).tolist() for a in axes_]
        kept = []
        for combo in product(*[range(len(a[3])) for a in axes_]):
            log_bound = log_c0
            vol = 1.0
            for i, p in enumerate(combo):
                log_bound -= decay[i][p]
                vol *= widths[i][p]
            if log_bound + math.log(vol) >= skip_log:
                kept.append(combo)
        return axes_, np.array(kept, dtype=np.intp).reshape(-1, ndim)

    while True:
        axes, blocks = panels_and_blocks(order)
        while len(blocks) * (order + 1) ** ndim > max_nodes and order > 16:
            order -= 8
            axes, blocks = panels_and_blocks(order)
        n_total = len(blocks) * (order + 1) ** ndim
        if n_total > max_nodes:
            raise NoConvergence(f"node budget exceeded ({n_total} > {max_nodes})")
        acc_full = 0.0 + 0.0j
        acc_low = [0.0 + 0.0j] * ndim
        per_chunk = max(1, _CHUNK_NODES // (order + 1) ** ndim)
        for start in range(0, len(blocks), per_chunk):
            chunk = blocks[start:start + per_chunk]
            ys, w_full, w_low = (_open_grids([a[k] for a in axes], chunk) for k in range(3))
            vals = f.value([cs[i] + 1j * ys[i] for i in range(ndim)])
            acc_full = _add_block_sums(acc_full, vals * reduce(mul, w_full))
            for i in range(ndim):
                w_mixed = [w_low[j] if j == i else w_full[j] for j in range(ndim)]
                acc_low[i] = _add_block_sums(acc_low[i], vals * reduce(mul, w_mixed))

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


def _open_grids(per_axis: Sequence[np.ndarray], chunk: np.ndarray) -> list[np.ndarray]:
    """Row chunk[b, i] of each axis's (panels, order+1) array for every block
    b of the chunk, axis i spread along dimension i+1 of the open grid."""
    out = []
    for i, arr in enumerate(per_axis):
        shape = [len(chunk)] + [1] * len(per_axis)
        shape[i + 1] = arr.shape[1]
        out.append(arr[chunk[:, i]].reshape(shape))
    return out


def _add_block_sums(acc: complex, terms: np.ndarray) -> complex:
    """acc plus the sum of each block (leading index) of ``terms``, one
    block after another."""
    for block in terms:
        acc += np.sum(block)
    return acc


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
