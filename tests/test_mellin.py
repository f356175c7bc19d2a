import math
from fractions import Fraction as F

import numpy as np
import pytest

from mbeval import catalog as cat
from mbeval import mellin as ml
from mbeval.errors import InfeasibleContour, NegativeDimension
from mbeval.gammafn import clgamma
from mbeval.symcore import GammaFactor, LinearForm

L = LinearForm


def _gamma_multiset(mb):
    out = {}
    for g in mb.canonical_gammas():
        out[repr(g.arg)] = out.get(repr(g.arg), 0) + g.mult
    return out


# ---------------------------------------------------------------------------
# derive_mb structures


def test_derive_h1_reproduces_known_integrand():
    mb = cat.h1_mb()
    assert mb.dim == 1
    assert _gamma_multiset(mb) == {"-z": 2, "z+1/2": 2}
    # prefactor 1/2 with a residual 2^-1 base power: total 1/4
    assert mb.prefactor == F(1, 2)
    assert mb.base_powers == ((F(2), L.constant(-1)),)
    assert dict(mb.powers) == {"a": L({"z": -2}, -1), "b": L({"z": 2})}


def test_derive_ising3_reproduces_known_integrand():
    mb = cat.ising_mb(3)
    assert _gamma_multiset(mb) == {"-z": 4, "1/2*k+z+1/2": 2, "-2*z": -1}
    assert mb.prefactor == F(1, 3)
    assert mb.pref_gammas == (GammaFactor(L({"k": 1}, 1), -1),)


def test_derive_ising4_reproduces_known_integrand():
    mb = cat.ising_mb(4)
    assert _gamma_multiset(mb) == {"-z": 4, "1/2*k+z+1/2": 4,
                                   "-2*z": -1, "k+2*z+1": -1}
    assert mb.prefactor == F(1, 12)


def test_derive_ising5_two_fold():
    mb = cat.ising_mb(5)
    assert mb.dim == 2
    assert _gamma_multiset(mb) == {"-z1": 4, "-z2": 4,
                                   "1/2*k+z1+z2+1/2": 2,
                                   "-2*z1": -1, "-2*z2": -1}
    assert mb.prefactor == F(1, 60)


def test_derive_box_j2_reproduces_known_integrand():
    mb, sum_arg = cat.box_j_mb(2)
    assert _gamma_multiset(mb) == {
        "-z1": 1, "-z2": 1, "2*z1+1": 1, "2*z2+1": 1,
        "-1/2*s+z1+z2": 1, "s-2*z1-2*z2+1": 1,
        "2*z1+2": -1, "2*z2+2": -1, "s-2*z1-2*z2+2": -1}
    assert sum_arg == L({"s": F(-1, 2), "z1": 1, "z2": 1})
    assert any(g.arg == L({"s": F(-1, 2)}) and g.mult == -1
               for g in mb.pref_gammas)


def test_derive_mb_dimension_mismatch():
    s = cat.h1_bracket_series()
    with pytest.raises(NegativeDimension):
        ml.derive_mb(s, ["n2", "n3"])


# ---------------------------------------------------------------------------
# choose_contour


def test_contour_c31():
    mb = cat.ising_mb(3)
    ct = ml.choose_contour(mb, {"k": 1})
    assert ct.c == (F(-1, 2),)
    assert ct.margin == F(1, 2)


def test_contour_h1():
    ct = ml.choose_contour(cat.h1_mb(), {"a": 1, "b": 1})
    assert ct.c == (F(-1, 4),)
    assert ct.margin == F(1, 4)


def test_contour_box_j2_at_s1_with_crossing_shift():
    # the straight contour exists only once the crossed pole is relaxed
    mb, sum_arg = cat.box_j_mb(2)
    with pytest.raises(InfeasibleContour):
        ml.choose_contour(mb, {"s": 1})
    ct = ml.choose_contour(mb, {"s": 1}, pole_shifts={sum_arg: 1})
    assert ct.margin > 0
    # all six numerator slacks positive under the shifted reading
    c1, c2 = (float(x) for x in ct.c)
    s = 1.0
    slacks = [-c1, -c2, 2 * c1 + 1, 2 * c2 + 1,
              s - 2 * c1 - 2 * c2 + 1, c1 + c2 - s / 2 + 1.0]
    assert all(x > 0 for x in slacks)


def test_contour_box_j2_feasible_for_negative_s():
    mb, _ = cat.box_j_mb(2)
    ct = ml.choose_contour(mb, {"s": -1})
    assert ct.margin > 0


def test_contour_pole_shift_bounds_the_shifted_gamma_from_both_sides():
    # two crossed poles of Gamma(z1+z2-s/2) at s = 1/2: the contour must lie
    # between the second and the third pole, -2 < Re(arg) < -1, or the two
    # residues added below continue the wrong integral (B3 = 1.2451 with
    # Re(arg) = -11/12)
    s, tol = 0.5, 1e-8
    mb, sum_arg = cat.box_j_mb(2)
    ct = ml.choose_contour(mb, {"s": s}, pole_shifts={sum_arg: 2})
    re_arg = sum(ct.c) - F(1, 4)
    assert -2 + ct.margin <= re_arg <= -1 - ct.margin and ct.margin > 0
    value = ml.eval_contour(mb, {"s": s}, ct, tol=tol).value
    for j in range(2):
        cj = (-1.0) ** j / (math.factorial(j) * (2 * j + 1)) \
            * math.gamma(-(s - 2.0 * j) / 2.0) / math.gamma(-s / 2.0)
        value += cj * cat._box_j_value(1, s - 2.0 * j, tol)[0]
    assert abs(value - cat.box_b(3, s, "oracle", tol).value) <= tol


# ---------------------------------------------------------------------------
# eval_contour values


def test_h1_contour_pi_squared_over_4():
    r = ml.eval_contour(cat.h1_mb(), {"a": 1.0, "b": 1.0}, tol=1e-10)
    assert abs(r.value - math.pi ** 2 / 4) < 1e-9
    assert r.diagnostics["imag_residual"] < 1e-10


def test_c41_contour_value():
    r = ml.eval_contour(cat.ising_mb(4), {"k": 1.0}, tol=1e-9)
    zeta3 = 1.2020569031595943
    assert abs(r.value - 7 * zeta3 / 12) < 1e-9


def test_c21_contour_via_one_fold_mb():
    _, series = cat._ising_bracket_series(2, None)
    mb = ml.derive_mb(series, ["n1"])
    mb = ml.MBIntegrand(mb.zsyms, mb.prefactor * F(4, 2), mb.pref_gammas,
                        mb.base_powers, mb.powers, mb.gammas, mb.params)
    assert mb.dim == 1
    r = ml.eval_contour(mb, {"k": 1.0}, tol=1e-9)
    assert abs(r.value - 1.0) < 1e-9


def test_contour_shift_invariance_catalog_integrands():
    cases = [
        (cat.h1_mb(), {"a": 1.0, "b": 2.0}),
        (cat.ising_mb(3), {"k": 1.0}),
        (cat.ising_mb(4), {"k": 2.0}),
        (cat.box_j_mb(1)[0], {"s": -0.5}),
    ]
    for mb, pv in cases:
        ct = ml.choose_contour(mb, pv)
        r1 = ml.eval_contour(mb, pv, ct, 1e-9)
        shift = F(1, 7) * ct.margin
        ct2 = ml.Contour(c=tuple(c + shift for c in ct.c), margin=ct.margin - shift)
        r2 = ml.eval_contour(mb, pv, ct2, 1e-9)
        assert abs(r1.value - r2.value) <= 2e-9


def test_conjugate_symmetry_on_sampled_nodes():
    for mb, pv in [(cat.h1_mb(), {"a": 1.0, "b": 2.0}),
                   (cat.ising_mb(5), {"k": 1.0})]:
        ct = ml.choose_contour(mb, pv)
        res = ml.conjugate_symmetry_residual(mb, pv, ct)
        assert res < 1e-12


def test_prefactor_bookkeeping_h1_elliptic():
    from mbeval.hyperfun import ellipk
    for a, b in [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
        r = ml.eval_contour(cat.h1_mb(), {"a": a, "b": b}, tol=1e-10)
        closed = math.pi * math.sqrt(a * a / (b * b)) \
            * ellipk(1 - a * a / (b * b)) / (2 * a)
        assert abs(r.value - closed) < 1e-9


def test_infeasible_contour_is_final():
    # a single right-family gamma cannot trap a vertical contour in a bounded
    # strip with positive slack against its reflected twin
    mb = ml.MBIntegrand(
        zsyms=("z",), prefactor=F(1), pref_gammas=(), base_powers=(),
        powers=(("x", L.symbol("z")),),
        gammas=(GammaFactor(L({"z": -1}), 1), GammaFactor(L({"z": -1}, -2), 1),
                GammaFactor(L({"z": 1}, 1), -1)),
        params=("x",))
    # constraints -c > 0 and -c - 2 > 0 are satisfiable; make them clash
    mb2 = ml.MBIntegrand(
        zsyms=("z",), prefactor=F(1), pref_gammas=(), base_powers=(),
        powers=(("x", L.symbol("z")),),
        gammas=(GammaFactor(L({"z": -1}), 1), GammaFactor(L({"z": 1}, -1), 1)),
        params=("x",))
    with pytest.raises(InfeasibleContour):
        ml.choose_contour(mb2, {"x": 1})
    ml.choose_contour(mb, {"x": 1})


# ---------------------------------------------------------------------------
# open grids and folded gamma ratios against the dense, unfolded evaluation


class _DenseUnfolded(ml._NumericIntegrand):
    """Reference evaluation: every gamma factor is one clgamma call on the
    dense node tensor, and no Gamma(a)/Gamma(a+m) pair is folded."""

    def __init__(self, mb, param_values):
        super().__init__(mb, param_values)
        vals = {k: float(v) for k, v in param_values.items()}
        self.gamma_terms = []
        for g in mb.gammas:
            coefs = np.array([float(g.arg.coeff(z)) for z in mb.zsyms])
            rest = L({k: v for k, v in g.arg.coeffs.items()
                      if k not in set(mb.zsyms)}, g.arg.const)
            self.gamma_terms.append((float(rest.evaluate(vals)), coefs, g.mult))
        self.ratio_terms = []

    def log_value(self, zs):
        zs = np.broadcast_arrays(*zs)
        lg = np.zeros(zs[0].shape, dtype=complex)
        for b0, coefs, mult in self.gamma_terms:
            arg = b0 + sum(c * z for c, z in zip(coefs, zs) if c != 0.0)
            lg = lg + mult * clgamma(arg)
        for lb, e0, coefs in self.pow_terms:
            ee = e0 + sum(c * z for c, z in zip(coefs, zs) if c != 0.0)
            lg = lg + lb * ee
        return lg + self.log_pref


FOLD_RTOL = 1e-13

# the integrands of acceptance criterion 11, with the tol each is run at here
# (None: too slow against the dense reference, so checked on sampled nodes)
CRITERION_11 = [
    ("h1", lambda: cat.h1_mb(), {"a": 1.0, "b": 2.0}, 1e-9),
    ("ising3", lambda: cat.ising_mb(3), {"k": 1.0}, 1e-9),
    ("ising4", lambda: cat.ising_mb(4), {"k": 1.0}, 1e-9),
    ("ising5", lambda: cat.ising_mb(5), {"k": 1.0}, 1e-9),
    ("c5_param", lambda: cat.c5_param_mb(), {"k": 1.0, "alpha": 0.5, "beta": 0.5}, 1e-9),
    ("ising_param3", lambda: cat.ising_param_mb(3),
     {"k": 1.0, "al": 0.5, "be": 1 / 3, "ga": 0.25}, 1e-9),
    ("ising_param4", lambda: cat.ising_param_mb(4),
     {"k": 2.0, "al": 0.5, "be": 1 / 3, "ga": 0.25, "de": 0.6}, 1e-9),
    ("box_j1", lambda: cat.box_j_mb(1)[0], {"s": -0.5}, 1e-9),
    ("box_j2", lambda: cat.box_j_mb(2)[0], {"s": -0.5}, 1e-7),
    ("box_j3", lambda: cat.box_j_mb(3)[0], {"s": -0.5}, None),
]
FOLDED = {"box_j1", "box_j2", "box_j3"}
IDS = [c[0] for c in CRITERION_11]


def _open_grid(ct, n_per_axis, seed=0):
    rng = np.random.default_rng(seed)
    ys = [np.sort(rng.uniform(-12.0, 12.0, n_per_axis)) for _ in ct.c]
    return [float(c) + 1j * g
            for c, g in zip(ct.c, np.meshgrid(*ys, indexing="ij", sparse=True))]


@pytest.mark.parametrize("name,build,pv,tol", CRITERION_11, ids=IDS)
def test_open_grid_folded_matches_dense_unfolded(name, build, pv, tol, monkeypatch):
    mb = build()
    ct = ml.choose_contour(mb, pv)
    fast, ref = ml._NumericIntegrand(mb, pv), _DenseUnfolded(mb, pv)
    assert bool(fast.ratio_terms) == (name in FOLDED)
    zs = _open_grid(ct, 9)
    v_open = fast.value(zs)
    assert v_open.shape == (9,) * mb.dim
    assert np.array_equal(v_open, fast.value(np.broadcast_arrays(*zs)))
    if name not in FOLDED:
        assert np.array_equal(v_open, ref.value(zs))
    if tol is None:
        return
    r_fast = ml.eval_contour(mb, pv, ct, tol)
    monkeypatch.setattr(ml, "_NumericIntegrand", _DenseUnfolded)
    r_ref = ml.eval_contour(mb, pv, ct, tol)
    assert r_fast.diagnostics["nodes"] == r_ref.diagnostics["nodes"]
    if name in FOLDED:
        assert abs(r_fast.value - r_ref.value) <= FOLD_RTOL * abs(r_ref.value)
    else:
        assert (r_fast.value, r_fast.abs_err_est, r_fast.diagnostics) \
            == (r_ref.value, r_ref.abs_err_est, r_ref.diagnostics)


def _mp_value(mb, pv, zpt):
    """The integrand at one point, from mpmath log-gammas at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        q = lambda x: mp.mpf(x.numerator) / x.denominator
        vals = {k: mp.mpf(v) for k, v in pv.items()}
        vals.update({z: mp.mpc(v) for z, v in zip(mb.zsyms, zpt)})

        def ev(form):
            return q(form.const) + sum(q(c) * vals[k] for k, c in form.coeffs.items())
        out = q(mb.prefactor)
        for g in mb.pref_gammas:
            out *= mp.gamma(ev(g.arg)) ** g.mult
        lg = sum(g.mult * mp.loggamma(ev(g.arg)) for g in mb.gammas)
        lg += sum(ev(e) * mp.log(vals[name]) for name, e in mb.powers)
        lg += sum(ev(e) * mp.log(q(base)) for base, e in mb.base_powers)
        return complex(out * mp.exp(lg))


# clgamma is good to about 1e-13 relative per factor (1e-12 for the dozen
# factors of box_j3) on these strips; folding must not add to that
@pytest.mark.parametrize("name,build,pv,tol",
                         [c for c in CRITERION_11 if c[0] in FOLDED],
                         ids=sorted(FOLDED))
def test_folded_integrands_against_mpmath(name, build, pv, tol):
    mb = build()
    ct = ml.choose_contour(mb, pv)
    f = ml._NumericIntegrand(mb, pv)
    rng = np.random.default_rng(1)
    for _ in range(30):
        zpt = [float(c) + 1j * rng.uniform(-12.0, 12.0) for c in ct.c]
        exact = _mp_value(mb, pv, zpt)
        got = f.value([np.array([z]) for z in zpt])[0]
        assert abs(got - exact) <= 1e-12 * abs(exact)


def test_fold_gamma_ratios_pairs_only_exact_integer_shifts():
    z = L.symbol("z")
    G = GammaFactor
    # Gamma(2z+1)/Gamma(2z+2) = 1/(2z+1)
    rest, pairs = ml._fold_gamma_ratios([G(2 * z + 1, 1), G(2 * z + 2, -1)])
    assert rest == [] and pairs == [(2 * z + 1, 1, 1)]
    # Gamma(z+3)/Gamma(z) = z(z+1)(z+2), the pair listed high argument first
    rest, pairs = ml._fold_gamma_ratios([G(z + 3, 1), G(-z, 1), G(z, -1)])
    assert rest == [G(-z, 1)] and pairs == [(z, 3, -1)]
    for unfoldable in (
            [G(z, 1), G(z + F(1, 2), -1)],        # shift not an integer
            [G(z, 2), G(z + 1, -1)],              # multiplicities differ
            [G(z, 1), G(z + 1, 1)],               # both in the numerator
            [G(z, 1), G(2 * z + 1, -1)],          # shift depends on z
            [G(L({"z": 1, "s": 1}), 1), G(z + 1, -1)]):   # shift depends on s
        rest, pairs = ml._fold_gamma_ratios(unfoldable)
        assert rest == unfoldable and pairs == []


def test_folded_pair_values_match_gamma_ratios():
    # pairs with m = 3, p = 2; m = 1, p = 1; and m = 1, p = 1 with a
    # parameter in the argument
    z = L.symbol("z")
    G = GammaFactor
    mb = ml.MBIntegrand(
        zsyms=("z",), prefactor=F(1), pref_gammas=(), base_powers=(),
        powers=(("x", z),),
        gammas=(G(z + F(1, 2), 2), G(z + F(7, 2), -2), G(-z, 1), G(-z + 1, -1),
                G(L({"z": -1, "s": 1}), 1), G(L({"z": -1, "s": 1}, 1), -1)),
        params=("x", "s"))
    pv = {"x": 0.7, "s": 0.3}
    f = ml._NumericIntegrand(mb, pv)
    assert [t[2:] for t in f.ratio_terms] == [(3, 2), (1, 1), (1, 1)]
    assert f.gamma_terms == []
    for y in np.linspace(-20.0, 20.0, 41):
        zpt = [complex(-0.2, y)]
        exact = _mp_value(mb, pv, zpt)
        assert abs(f.value([np.array(zpt)])[0] - exact) <= 1e-14 * abs(exact)


def test_unfoldable_pair_stays_two_gamma_factors():
    z = L.symbol("z")
    mb = ml.MBIntegrand(
        zsyms=("z",), prefactor=F(1), pref_gammas=(), base_powers=(), powers=(),
        gammas=(GammaFactor(z, 2), GammaFactor(z + 1, -1)), params=())
    f = ml._NumericIntegrand(mb, {})
    assert f.ratio_terms == [] and len(f.gamma_terms) == 2


# ---------------------------------------------------------------------------
# the contour LP against the inverse-matrix solve


def _choose_contour_by_inverse(mb, param_values, pole_shifts=None):
    """The contour LP as it was solved before: the exact inverse of every
    vertex subset times its right-hand side."""
    from itertools import combinations
    from mbeval.symcore import SingularSystemError, mat_inverse, rat
    params = {k: rat(v) if not isinstance(v, float) else F(v)
              for k, v in param_values.items()}
    shifts = pole_shifts or {}
    n = mb.dim
    rows = []
    for g in mb.numerator_gammas():
        a_vec = [g.arg.coeff(z) for z in mb.zsyms]
        rows.append((a_vec, rat(g.arg.without(mb.zsyms).evaluate(params))
                     + rat(shifts.get(g.arg, 0)), True))
    for i in range(n):
        e = [F(int(j == i)) for j in range(n)]
        rows.append((e, ml._BOX, False))
        rows.append(([-x for x in e], ml._BOX, False))
    best = None
    for subset in combinations(range(len(rows)), n + 1):
        mat = [list(rows[i][0]) + [F(-1) if rows[i][2] else F(0)] for i in subset]
        rhs = [-rows[i][1] for i in subset]
        try:
            inv, _ = mat_inverse(mat)
        except SingularSystemError:
            continue
        pt = [sum(inv[i][j] * rhs[j] for j in range(n + 1)) for i in range(n + 1)]
        c_vec, margin = pt[:n], pt[n]
        if all(sum(a * c for a, c in zip(a_vec, c_vec)) + b >= (margin if has_m else 0)
               for a_vec, b, has_m in rows) and (best is None or margin > best[0]):
            best = (margin, c_vec)
    return ml.Contour(c=tuple(best[1]), margin=best[0])


# the catalog integrands at the parameters of this file, and the crossings
# _box_j_value makes for s >= 0
LP_CASES = [(name, build, pv, None) for name, build, pv, _ in CRITERION_11] + [
    ("ising3_k1", lambda: cat.ising_mb(3), {"k": 1}, None),
    ("h1_unit", lambda: cat.h1_mb(), {"a": 1, "b": 1}, None),
    ("box_j2_s-1", lambda: cat.box_j_mb(2)[0], {"s": -1}, None),
    ("box_j4_s-0.5", lambda: cat.box_j_mb(4)[0], {"s": -0.5}, None),
    # binary floats: Fraction(s) has a denominator near 2^54
    ("box_j1_s-1.22", lambda: cat.box_j_mb(1)[0], {"s": -1.22}, None),
] + [(f"box_j{m}_s{s}_shift{k}", lambda m=m: cat.box_j_mb(m), {"s": s}, k)
     for m, s, k in [(2, 1, 1), (2, 0.5, 1), (2, 1.9, 1), (2, 2.5, 2), (3, 1, 1),
                     (4, 1, 1), (1, 0.38, 1)]]


@pytest.mark.parametrize("name,build,pv,shift", LP_CASES, ids=[c[0] for c in LP_CASES])
def test_contour_lp_gauss_jordan_matches_inverse(name, build, pv, shift):
    mb, shifts = build(), None
    if shift is not None:
        mb, sum_arg = mb
        shifts = {sum_arg: shift}
    got = ml.choose_contour(mb, pv, pole_shifts=shifts)
    assert got == _choose_contour_by_inverse(mb, pv, shifts)
    assert all(isinstance(c, F) for c in got.c) and isinstance(got.margin, F)


# ---------------------------------------------------------------------------
# chunked array evaluation against the per-block loop


def _eval_contour_per_block(mb, param_values, contour, tol, max_nodes=None):
    """The contour quadrature as it was before chunking: one integrand call
    per kept panel block on its own open grid, same rounds and error logic."""
    from itertools import product
    if max_nodes is None:
        max_nodes = ml.DEFAULT_MAX_NODES
    f = ml._NumericIntegrand(mb, param_values)
    ndim = f.dim
    cs = [float(c) for c in contour.c]
    kappas = [f.axis_decay(i) for i in range(ndim)]
    mags = abs(f.value([np.array([complex(c)]) for c in cs]))[0]
    log_scale = math.log(mags) if mags > 0 else 0.0
    t_axes = [max(8.0, (log_scale - math.log(tol * 1e-3)) / kappas[i])
              for i in range(ndim)]
    width = float(min(max(contour.margin, F(1, 100)), 2))
    log_c0 = float(np.log(np.abs(f.value([np.array([complex(c)]) for c in cs])))[0]) \
        if mags > 0 else 0.0
    order = 16 if tol > 3e-8 else 32
    rounds = 0
    narrow = float(contour.margin) < 0.2
    value_prev = None
    cross = None

    def panels(order_):
        """Per axis, per panel: (nodes, full weights, low weights, |y| inner)."""
        x_full, w_full = ml._clenshaw_curtis(order_)
        x_low, w_low = ml._clenshaw_curtis(order_ // 2)
        out = []
        for i in range(ndim):
            edges = ml._panel_edges(width, t_axes[i])
            axis = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                wl = np.zeros(order_ + 1)
                wl[::2] = half * w_low
                axis.append((mid + half * x_full, half * w_full, wl, lo))
            if i != 0:
                axis = [(-nd[::-1], wf[::-1], wl[::-1], lo)
                        for nd, wf, wl, lo in reversed(axis)] + axis
            out.append(axis)
        return out

    def kept(axes_):
        skip_log = math.log(tol) - 8.0 - math.log(
            max(np.prod([len(a) for a in axes_]), 1.0))
        out = []
        for combo in product(*axes_):
            log_bound = log_c0
            vol = 1.0
            for i in range(ndim):
                log_bound -= kappas[i] * combo[i][3]
                vol *= abs(combo[i][0][-1] - combo[i][0][0]) + 1e-30
            if log_bound + math.log(vol) >= skip_log:
                out.append(combo)
        return out

    while True:
        axes = panels(order)
        blocks = kept(axes)
        while len(blocks) * (order + 1) ** ndim > max_nodes and order > 16:
            order -= 8
            axes = panels(order)
            blocks = kept(axes)
        acc_full = 0.0 + 0.0j
        acc_low = [0.0 + 0.0j] * ndim
        n_used = 0
        for combo in blocks:
            n_used += (order + 1) ** ndim
            grids = np.meshgrid(*[c[0] for c in combo], indexing="ij", sparse=True)
            vals = f.value([cs[i] + 1j * grids[i] for i in range(ndim)])
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
        full = acc_full + np.conj(acc_full)
        lows = [al + np.conj(al) for al in acc_low]
        scale = (2.0 * math.pi) ** (-ndim)
        value_c = full * scale
        err_rule = 8.0 * sum(abs(full - lo) for lo in lows) * scale
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
        verified = (not narrow) or (cross is not None and cross <= tol)
        if (err_rule + tail <= tol and verified) or rounds >= 4:
            break
        value_prev = value_c.real
        rounds += 1
        if tail > tol * 0.5:
            t_axes = [t * 1.5 for t in t_axes]
        if err_rule > tol * 0.5 or (narrow and not verified):
            order = min(order + 16, 96)
            width = width * 0.7
    err = err_rule + tail + (cross if (narrow and cross is not None) else 0.0)
    return (float(value_c.real), float(err),
            {"nodes": n_used, "t_axes": list(t_axes),
             "imag_residual": float(abs(value_c.imag)),
             "contour": [float(c) for c in contour.c]}, rounds)


def _assert_same_as_per_block(mb, pv, ct, tol, **kw):
    ref = _eval_contour_per_block(mb, pv, ct, tol, **kw)
    r = ml.eval_contour(mb, pv, ct, tol, **kw)
    assert (r.value, r.abs_err_est, r.diagnostics) == ref[:3]
    return ref


# J3 takes tens of seconds per evaluation, twice here
@pytest.mark.parametrize("name,build,pv,tol",
                         [c for c in CRITERION_11 if c[0] != "box_j3"],
                         ids=[i for i in IDS if i != "box_j3"])
def test_chunked_contour_is_bit_identical_to_per_block_loop(name, build, pv, tol):
    mb = build()
    _assert_same_as_per_block(mb, pv, ml.choose_contour(mb, pv), tol)


def test_chunked_contour_bit_identical_over_several_rounds():
    # the narrow margin of J1 near s = 0 needs a cross-round check, so a
    # second round with a higher order and narrower panels is evaluated too
    mb, _ = cat.box_j_mb(1)
    pv = {"s": -0.1}
    ct = ml.choose_contour(mb, pv)
    assert float(ct.margin) < 0.2
    assert _assert_same_as_per_block(mb, pv, ct, 1e-9)[3] >= 1


def test_chunked_contour_bit_identical_on_a_ragged_last_chunk(monkeypatch):
    mb = cat.ising_mb(5)
    pv = {"k": 1.0}
    ct = ml.choose_contour(mb, pv)
    # 5 blocks of 17 x 17 nodes per chunk: the last chunk is short
    monkeypatch.setattr(ml, "_CHUNK_NODES", 5 * 17 ** 2 + 3)
    ref = _assert_same_as_per_block(mb, pv, ct, 1e-7)
    assert (ref[2]["nodes"] // 17 ** 2) % 5 != 0
