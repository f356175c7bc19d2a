import math
from fractions import Fraction as F

import numpy as np
import pytest

from mbeval import catalog as cat
from mbeval import chulls as ch
from mbeval import cli
from mbeval import mellin as ml
from mbeval.errors import JetOrderOverflow, NoCover, ResonantLattice
from mbeval.gammafn import LOG_PI, polygamma
from mbeval.symcore import GammaFactor, LinearForm

L = LinearForm


def _geometric_mb(scale=1):
    # 1/(1+x) = int Gamma(-z) Gamma(1+z) x^z dz/(2 pi i); the scaled variant
    # z -> scale*z' multiplies |det A| without changing the value
    z = L.symbol("z")
    return ml.MBIntegrand(
        zsyms=("z",), prefactor=F(scale), pref_gammas=(), base_powers=(),
        powers=(("x", z * scale),),
        gammas=(GammaFactor(z * -scale, 1), GammaFactor(z * scale + 1, 1)),
        params=("x",))


def test_geometric_series_both_sides():
    mb = _geometric_mb()
    subsets = ch.enumerate_pole_subsets(mb)
    assert [s.gamma_ids for s in subsets] == [(0,), (1,)]
    r = ch.eval_mb_series(mb, {"x": F(1, 2)}, 1e-12)
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-11)
    r = ch.eval_mb_series(mb, {"x": F(2)}, 1e-12)
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-11)


def test_det_scaling_leaves_value_unchanged():
    v1 = ch.eval_mb_series(_geometric_mb(1), {"x": F(1, 2)}, 1e-12).value
    v2 = ch.eval_mb_series(_geometric_mb(2), {"x": F(1, 2)}, 1e-12).value
    subs = ch.enumerate_pole_subsets(_geometric_mb(2))
    assert {abs(s.det) for s in subs} == {F(2)}
    assert v1 == pytest.approx(v2, abs=1e-11)


def test_pole_subsets_c31():
    mb = cat.ising_mb(3)
    subs = ch.enumerate_pole_subsets(mb)
    args = sorted(repr(mb.gammas[s.gamma_ids[0]].arg) for s in subs)
    assert args == ["-z", "1/2*k+z+1/2"]


def test_pole_subsets_box_j2_brute_count():
    mb, _ = cat.box_j_mb(2)
    subs = ch.enumerate_pole_subsets(mb)
    # brute force: 2-subsets of the 6 numerator gammas with nonsingular matrix
    from itertools import combinations
    from mbeval.symcore import det_rational
    nums = [g for g in mb.gammas if g.mult > 0]
    count = 0
    for a, b in combinations(nums, 2):
        rows = [[a.arg.coeff("z1"), a.arg.coeff("z2")],
                [b.arg.coeff("z1"), b.arg.coeff("z2")]]
        if det_rational(rows) != 0:
            count += 1
    assert len(subs) == count
    assert count == 12  # C(6,2) minus the three parallel pairs


def test_single_gamma_subset_det():
    mb = _geometric_mb()
    subs = ch.enumerate_pole_subsets(mb)
    assert subs[0].det == F(-1)
    assert subs[0].abs_det == 1


def test_h1_series_double_poles_match_contour():
    mb = cat.h1_mb()
    rc = ml.eval_contour(mb, {"a": 1.0, "b": 0.5}, tol=1e-11)
    rs = ch.eval_mb_series(mb, {"a": F(1), "b": F(1, 2)}, 1e-11)
    assert rs.value == pytest.approx(rc.value, abs=5e-11)
    profiles = rs.diagnostics["pole_order_profiles"]
    assert set(profiles) == {(2,)}


def test_h1_series_term_structure_log_weights():
    # double-pole residues carry psi/log weights; verify one lattice point by
    # finite differences of the integrand around the pole
    mb = cat.h1_mb()
    subsets = ch.enumerate_pole_subsets(mb)
    series = [ch.build_residue_series(mb, s) for s in subsets]
    grp = ch.group_by_cones(series, {"a": 1.0, "b": 0.5})
    assert len(grp.series) == 1
    s = grp.series[0]
    val, prof = ch._term_value(s, (0,), {"a": F(1), "b": F(1, 2)},
                               math.log(abs(float(s.prefactor))), 1.0)
    assert prof == (2,)
    # independent: residue of f at z=0 via a small contour circle (trapezoid)
    import numpy as np
    f = ml._NumericIntegrand(mb, {"a": 1.0, "b": 0.5})
    eps = 1e-2
    theta = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    zs = eps * np.exp(1j * theta)
    vals = f.value([zs])
    res = np.mean(vals * zs)  # (1/2pi i) oint f dz = mean of f(z) z over circle
    # lattice terms carry the right-closing orientation: term = -Res
    assert val == pytest.approx(-float(res.real), rel=2e-4)


def test_c3_param_series_two_half_families():
    mb = cat.ising_param_mb(3)
    subsets = ch.enumerate_pole_subsets(mb)
    series = [ch.build_residue_series(mb, s) for s in subsets]
    grp = ch.group_by_cones(series, {})
    chosen = {repr(mb.gammas[s.subset.gamma_ids[0]].arg) for s in grp.series}
    assert all("1/2*k" in a for a in chosen)
    assert len(grp.series) == 2
    pv = {"k": 1, "al": F(1, 2), "be": F(1, 3), "ga": F(1, 4)}
    rs = ch.eval_series(grp, pv, 1e-10)
    rc = ml.eval_contour(mb, {k: float(v) for k, v in pv.items()}, tol=1e-10)
    assert rs.value == pytest.approx(rc.value, abs=1e-9)


def test_c5_group_selection_and_value():
    mb = cat.c5_param_mb()
    subsets = ch.enumerate_pole_subsets(mb)
    assert len(subsets) == 3
    series = [ch.build_residue_series(mb, s) for s in subsets]
    grp = ch.group_by_cones(series, {"alpha": 1 / 25, "beta": 1 / 25})
    assert len(grp.series) == 1  # the (-z1, -z2) lattice covers this direction
    r = ch.eval_series(grp, {"k": 1, "alpha": F(1, 25), "beta": F(1, 25)}, 1e-9)
    rc = ml.eval_contour(mb, {"k": 1.0, "alpha": 0.04, "beta": 0.04}, tol=1e-10)
    assert r.value == pytest.approx(rc.value, abs=1e-8)
    assert set(r.diagnostics["pole_order_profiles"]) == {(3, 3)}


def test_c5_no_cover_at_unit_parameters():
    mb = cat.c5_param_mb()
    series = [ch.build_residue_series(mb, s) for s in ch.enumerate_pole_subsets(mb)]
    with pytest.raises(NoCover):
        ch.group_by_cones(series, {"alpha": 1.0, "beta": 1.0})


def test_box_j2_residue_terms_match_kdf_structure():
    # simple-pole terms of the (-z1, -z2) lattice at generic s equal
    # phi_m phi_n Gamma(m+n-s/2) / ((2m+1)(2n+1)(s-2m-2n+1) Gamma(-s/2))
    from mbeval.gammafn import gamma_signed
    s = F(1, 3)
    mb, _ = cat.box_j_mb(2)
    subsets = ch.enumerate_pole_subsets(mb)
    target = [sub for sub in subsets
              if {repr(mb.gammas[i].arg) for i in sub.gamma_ids} == {"-z1", "-z2"}]
    series = ch.build_residue_series(mb, target[0])
    log_pref = math.log(abs(float(series.prefactor)))
    sf = float(s)
    for m, n in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        # _term_value omits the z-free prefactor gammas (the 1/Gamma(-s/2)
        # lives in eval_series), so compare against the bare term
        val, prof = ch._term_value(series, (m, n), {"s": s}, log_pref, 1.0)
        assert prof == (1, 1)
        phi = (-1.0) ** (m + n) / (math.factorial(m) * math.factorial(n))
        expected = phi * gamma_signed(m + n - sf / 2) \
            / ((2 * m + 1) * (2 * n + 1) * (sf - 2 * m - 2 * n + 1))
        assert val == pytest.approx(expected, rel=1e-11)


def test_box_series_resonant_at_integer_s():
    mb, _ = cat.box_j_mb(2)
    with pytest.raises((ResonantLattice, NoCover)):
        ch.eval_mb_series(mb, {"s": 1}, 1e-8)


def test_jet_order_overflow():
    z = L.symbol("z")
    mb = ml.MBIntegrand(
        zsyms=("z",), prefactor=F(1), pref_gammas=(), base_powers=(),
        powers=(("x", z),),
        gammas=(GammaFactor(-z, 6), GammaFactor(z + 5, 2)),
        params=("x",))
    series = [ch.build_residue_series(mb, s) for s in ch.enumerate_pole_subsets(mb)]
    grp = ch.group_by_cones(series, {"x": 0.01})
    with pytest.raises(JetOrderOverflow):
        ch.eval_series(grp, {"x": F(1, 100)}, 1e-8)


def test_jet_arithmetic_consistency():
    a = np.zeros((3, 3))
    a[0, 0], a[1, 0], a[0, 1], a[1, 1] = 1.0, 0.5, -0.25, 0.1
    inv = _ref_jet_inv(a)
    prod = _ref_jet_mul(a, inv)
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.allclose(prod, expect, atol=1e-13)
    e = ch._jet_exp(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    # exp(x + 2y): coefficient of x^a y^b is 2^b/(a! b!)
    assert e[1, 1] == pytest.approx(2.0)
    assert e[2, 2] == pytest.approx(4.0 / 4.0)
    # the gathered product against the slice loop, on three axes
    b = np.random.default_rng(0).standard_normal((2, 3, 4))
    b[0, 0, 0] = 0.0
    np.testing.assert_allclose(ch._jet_exp(b), _ref_jet_exp(b), rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# reference: a residue term as the product of one jet per gamma factor (the
# evaluation the log-jet form replaced), with log(pi) kept in the negative
# non-integer branch


def _ref_jet_mul(a, b):
    out = np.zeros_like(a)
    for ia in np.ndindex(a.shape):
        ca = a[ia]
        if ca == 0.0:
            continue
        sl = tuple(slice(0, s - i) for s, i in zip(a.shape, ia))
        dst = tuple(slice(i, None) for i in ia)
        out[dst] += ca * b[sl]
    return out


def _ref_jet_linear(shape, grads):
    j = np.zeros(shape)
    for axis, g in enumerate(grads):
        if g != 0.0 and shape[axis] > 1:
            idx = [0] * len(shape)
            idx[axis] = 1
            j[tuple(idx)] = g
    return j


def _ref_order(shape):
    return sum(s - 1 for s in shape)


def _ref_jet_exp(a):
    out = np.zeros_like(a)
    out[(0,) * a.ndim] = 1.0
    term = out.copy()
    for m in range(1, _ref_order(a.shape) + 1):
        term = _ref_jet_mul(term, a) / m
        out += term
    return out


def _ref_jet_inv(a):
    out = np.zeros_like(a)
    out[(0,) * a.ndim] = 1.0 / a[(0,) * a.ndim]
    for _ in range(max(1, math.ceil(math.log2(_ref_order(a.shape) + 1)))):
        t = -_ref_jet_mul(a, out)
        t[(0,) * a.ndim] += 2.0
        out = _ref_jet_mul(out, t)
    return out


def _ref_jet_pow_int(a, m):
    if m < 0:
        return _ref_jet_pow_int(_ref_jet_inv(a), -m)
    out = np.zeros_like(a)
    out[(0,) * a.ndim] = 1.0
    while m:
        if m & 1:
            out = _ref_jet_mul(out, a)
        m >>= 1
        if m:
            a = _ref_jet_mul(a, a)
    return out


def _ref_lgamma_jet(shape, v, grads):
    """Normalized jet of Gamma(v + l(eps))/Gamma(v), v > 0."""
    l = _ref_jet_linear(shape, grads)
    acc = np.zeros(shape)
    lp = l
    for r in range(1, _ref_order(shape) + 1):
        acc += polygamma(r - 1, v) / math.factorial(r) * lp
        lp = _ref_jet_mul(lp, l)
    return _ref_jet_exp(acc)


def _ref_gamma_jet(shape, v, grads, axis):
    """(log scale, sign, jet) of Gamma(v + l(eps)); at a pole the 1/eps is
    left to the caller's pole order."""
    order = _ref_order(shape)
    neg = [-g for g in grads]
    if v.denominator == 1 and v <= 0:
        g, mu = grads[axis], -int(v)
        # Gamma(-mu + y) = (-1)^mu pi / (sin(pi y) Gamma(1 + mu - y))
        x2 = np.zeros(shape)
        if shape[axis] > 2:
            idx = [0] * len(shape)
            idx[axis] = 2
            x2[tuple(idx)] = (math.pi * g) ** 2
        sin_j = np.zeros(shape)
        sin_j[(0,) * len(shape)] = 1.0
        p = x2.copy()
        for c in (-1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0):
            sin_j += c * p
            p = _ref_jet_mul(p, x2)
        jet = _ref_jet_mul(_ref_jet_inv(sin_j),
                           _ref_jet_inv(_ref_lgamma_jet(shape, mu + 1.0, neg)))
        sign = (-1.0) ** mu * (1.0 if g > 0 else -1.0)
        return -math.lgamma(mu + 1.0) - math.log(abs(g)), sign, jet
    vf = float(v)
    if vf > 0:
        return math.lgamma(vf), 1.0, _ref_lgamma_jet(shape, vf, grads)
    # Gamma(v + y) = pi / (sin(pi (v + y)) Gamma(1 - v - y))
    l = _ref_jet_linear(shape, [math.pi * g for g in grads])
    sin_total = np.zeros(shape)
    p = np.zeros(shape)
    p[(0,) * len(shape)] = 1.0
    s0, c0 = math.sin(math.pi * vf), math.cos(math.pi * vf)
    for r in range(order + 1):
        # sin(pi v + x) = sum_r x^r/r! * (d/dx)^r sin(pi v)
        sin_total += (s0, c0, -s0, -c0)[r % 4] / math.factorial(r) * p
        p = _ref_jet_mul(p, l)
    jet = _ref_jet_mul(_ref_jet_inv(sin_total / s0),
                       _ref_jet_inv(_ref_lgamma_jet(shape, 1.0 - vf, neg)))
    return (LOG_PI - math.log(abs(s0)) - math.lgamma(1.0 - vf),
            1.0 if s0 > 0 else -1.0, jet)


def _ref_term_value(series, m, pvals):
    """(term, scale): scale is the term with every factor jet replaced by its
    absolute values, the size of the summands that cancel in the term."""
    env = dict(pvals)
    env.update({ch._IDX[i]: m[i] for i in range(series.dim)})
    q = [0] * series.dim
    factors = []
    for arg, grad, mult in series.term_gammas:
        v = F(arg.evaluate(env))
        axis = None
        if v.denominator == 1 and v <= 0:
            axis = [j for j, g in enumerate(grad) if g != 0][0]
            q[axis] += mult
        factors.append((v, [float(g) for g in grad], mult, axis))
    if any(qi <= 0 for qi in q):
        return 0.0, 0.0
    log_mag, sign = 0.0, 1.0
    jets = []
    for v, grad, mult, axis in factors:
        ls, sg, fj = _ref_gamma_jet(tuple(q), v, grad, axis)
        log_mag += mult * ls
        if sg < 0 and mult % 2:
            sign = -sign
        jets.append(_ref_jet_pow_int(fj, mult))
    for base, e, grad in ([(float(pvals[nm]), e, g) for nm, e, g in series.term_powers]
                          + [(float(b), e, g) for b, e, g in series.term_bases]):
        log_mag += float(e.evaluate(env)) * math.log(base)
        jets.append(_ref_jet_exp(
            _ref_jet_linear(tuple(q), [math.log(base) * float(g) for g in grad])))
    jet = abs_jet = _ref_jet_pow_int(jets[0], 0)
    for j in jets:
        jet = _ref_jet_mul(jet, j)
        abs_jet = _ref_jet_mul(abs_jet, np.abs(j))
    top = tuple(qi - 1 for qi in q)
    return sign * math.exp(log_mag) * jet[top], math.exp(log_mag) * abs_jet[top]


# Gamma(-z)^2 Gamma(z+1/2)^2 / Gamma(z-3/2) x^z: double poles whose terms
# carry a gamma factor at negative non-integer arguments
NEG_ARG_MB = {
    "schema": 1, "dim": 1, "prefactor": {"rational": "1", "gammas": []},
    "num": [{"coeffs": {"z": "-1"}, "const": "0", "mult": 2},
            {"coeffs": {"z": "1"}, "const": "1/2", "mult": 2}],
    "den": [{"coeffs": {"z": "1"}, "const": "-3/2", "mult": 1}],
    "powers": [{"param": "x", "coeffs": {"z": "1"}, "const": "0"}],
    "free_params": ["x"]}
NEG_ARG_MB_AT_HALF = 5.3905858325383378  # mpmath quad of the contour integral


@pytest.mark.parametrize("build, pvals", [
    (cat.c5_param_mb, {"k": F(1), "alpha": F(1, 25), "beta": F(1, 25)}),
    (cat.c5_param_mb, {"k": F(1), "alpha": F(1, 60), "beta": F(1, 100)}),
    (cat.c5_param_mb, {"k": F(2), "alpha": F(1, 25), "beta": F(1, 25)}),
    (cat.c5_param_mb, {"k": F(2), "alpha": F(1, 60), "beta": F(1, 100)}),
    (cat.c5_param_mb, {"k": F(3), "alpha": F(1, 25), "beta": F(1, 25)}),
    (cat.c5_param_mb, {"k": F(3), "alpha": F(1, 60), "beta": F(1, 100)}),
    (cat.h1_mb, {"a": F(1), "b": F(1, 2)}),
    (cat.h1_mb, {"a": F(3), "b": F(2)}),
    (lambda: cli.mb_from_json(NEG_ARG_MB), {"x": F(1, 2)}),
])
def test_log_jet_terms_match_the_jet_product(build, pvals):
    mb = build()
    checked = 0
    for subset in ch.enumerate_pole_subsets(mb):
        series = ch.build_residue_series(mb, subset)
        for t in range(7):
            for m in ch._shell_points(t, series.dim):
                val, prof = ch._term_value(series, m, pvals, 0.0, 1.0)
                ref, scale = _ref_term_value(series, m, pvals)
                # relative to the cancelling summands: where a C5 term is
                # thousands of times smaller than they are, the jet product
                # itself is off by up to 1.2e-11 of the term
                assert abs(val - ref) <= 1e-13 * scale, (subset.gamma_ids, m)
                checked += any(qi > 1 for qi in prof)
    assert checked > 0


def test_log_jet_term_against_a_cauchy_integral():
    # the C5 term where the jet product and the log-jet form differ most;
    # its residue is the mean of f(eps) eps1 eps2 over a torus of circles
    mp = pytest.importorskip("mpmath")
    mb = cat.c5_param_mb()
    pvals = {"k": F(1), "alpha": F(1, 25), "beta": F(1, 25)}
    subset = [s for s in ch.enumerate_pole_subsets(mb) if s.gamma_ids == (2, 4)][0]
    series = ch.build_residue_series(mb, subset)
    m = (2, 4)
    env = dict(pvals, m1=m[0], m2=m[1])

    def mpf(x):
        return mp.mpf(x.numerator) / x.denominator

    def f(eps):
        val = mp.mpf(1)
        for arg, grad, mult in series.term_gammas:
            val *= mp.gamma(mpf(F(arg.evaluate(env))) + grad[0] * eps[0]
                            + grad[1] * eps[1]) ** mult
        for name, e, grad in series.term_powers:
            val *= mpf(pvals[name]) ** (mpf(F(e.evaluate(env))) + grad[0] * eps[0]
                                        + grad[1] * eps[1])
        return val

    n = 24
    with mp.workdps(30):
        circle = [mp.mpf("0.05") * mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
        exact = float(mp.fsum(f((a, b)) * a * b for a in circle
                              for b in circle).real / n ** 2)
    val, prof = ch._term_value(series, m, pvals, 0.0, 1.0)
    ref, _ = _ref_term_value(series, m, pvals)
    assert prof == (3, 3)
    assert abs(val - exact) <= 1e-13 * abs(exact)
    assert abs(val - exact) < abs(ref - exact)


def test_negative_argument_factor_series_matches_contour():
    mb = cli.mb_from_json(NEG_ARG_MB)
    rs = ch.eval_mb_series(mb, {"x": F(1, 2)}, 1e-10)
    rc = ml.eval_contour(mb, {"x": 0.5}, tol=1e-12)
    assert set(rs.diagnostics["pole_order_profiles"]) >= {(2,)}
    assert abs(rs.value - NEG_ARG_MB_AT_HALF) <= rs.abs_err_est
    assert rs.value == pytest.approx(rc.value, abs=2 * rs.abs_err_est)


def test_total_jet_order_above_polygamma_range_overflows():
    # Gamma(-z1)^4 Gamma(-z2)^4 Gamma(z1+z2+1/2)^2 x^z1 y^z2: pole order (4, 4)
    # passes MAX_JET_ORDER but needs psi^(5)
    z1, z2 = L.symbol("z1"), L.symbol("z2")
    mb = ml.MBIntegrand(
        zsyms=("z1", "z2"), prefactor=F(1), pref_gammas=(), base_powers=(),
        powers=(("x", z1), ("y", z2)),
        gammas=(GammaFactor(-z1, 4), GammaFactor(-z2, 4),
                GammaFactor(z1 + z2 + F(1, 2), 2)),
        params=("x", "y"))
    assert ch.MAX_JET_ORDER >= 4
    with pytest.raises(JetOrderOverflow, match="total jet order 6"):
        ch.eval_mb_series(mb, {"x": F(1, 10), "y": F(1, 10)}, 1e-8)


@pytest.mark.parametrize("m", range(5))
def test_polygamma_at_negative_non_integers(m):
    mp = pytest.importorskip("mpmath")
    for x in (-0.5, -1 / 3, -1.5, -2.75, -7.5, -0.999, -3.01):
        ref = float(mp.polygamma(m, x))
        assert polygamma(m, x) == pytest.approx(ref, rel=1e-10)
    with pytest.raises(ValueError):
        polygamma(m, -2.0)
