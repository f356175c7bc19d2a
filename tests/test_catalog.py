import json
import math
from fractions import Fraction as F

import pytest

from mbeval import catalog as cat
from mbeval import cli
from mbeval import quadrature as qd
from mbeval.errors import (DegenerateParameters, DomainError, MethodUnavailable,
                           NoClosedForm, NoCover, OutsideROC, PoleError,
                           SlowConvergence)
from mbeval.hyperfun import ZETA3

ZETA3_REF = 1.2020569031595943


# ---------------------------------------------------------------------------
# Ising entries


def test_c1k_closed_equals_oracle():
    for k in range(6):
        closed = cat.ising_c(1, k, "closed").value
        oracle = cat.ising_c(1, k, "oracle").value
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_c2k_closed_equals_oracle():
    for k in range(6):
        closed = cat.ising_c(2, k, "closed").value
        oracle = cat.ising_c(2, k, "oracle").value
        assert closed == pytest.approx(oracle, abs=1e-9)
    assert cat.ising_c(2, 1, "closed").value == pytest.approx(1.0, abs=1e-10)


def test_c31_three_way_agreement():
    closed = cat.ising_c(3, 1, "closed")
    contour = cat.ising_c(3, 1, "contour", 1e-9)
    oracle = cat.ising_c(3, 1, "oracle")
    assert closed.diagnostics["imag_residual"] < 1e-12
    for a, b in [(closed, contour), (closed, oracle), (contour, oracle)]:
        assert a.value == pytest.approx(b.value, abs=1e-8)


def test_c41_and_table_values_match_contour():
    r = cat.ising_c(4, 1, "contour", 1e-9)
    assert r.value == pytest.approx(7 * ZETA3 / 12, abs=1e-9)
    for k in (3, 5, 7):
        a, b = cat._C4_TABLE[k]
        table_val = float(a) * ZETA3 + float(b)
        r = cat.ising_c(4, k, "contour", 1e-10)
        assert r.value == pytest.approx(table_val, abs=1e-8)


def test_table_rational_fit_recovery():
    for k in (1, 3, 5, 7):
        v = cat.ising_c(4, k, "contour", 1e-12).value
        a, b = cat.fit_zeta3(v, k)
        assert (a, b) == cat._C4_TABLE[k]


def test_c43_closed_value():
    # (7 zeta3 - 6)/1152
    assert cat.ising_c(4, 3, "closed").value == pytest.approx(
        (7 * ZETA3_REF - 6) / 1152, rel=1e-12)
    assert cat.ising_c(4, 3, "closed").value == pytest.approx(0.002095832, abs=1e-9)


def test_c5_has_no_closed_form():
    with pytest.raises(NoClosedForm):
        cat.ising_c(5, 1, "closed")


def test_c51_contour_equals_bessel_moment():
    r = cat.ising_c(5, 1, "contour", 1e-9)
    o = cat.ising_c(5, 1, "oracle")
    assert r.value == pytest.approx(o.value, abs=1e-7)
    assert o.value == pytest.approx(0.6657598001999375, abs=1e-10)


def test_ising_normalization_chain():
    # C_{n,k} = 2^(n-k+1)/(n! k!) c_{n,k} wholesale
    for n, k in [(1, 0), (1, 2), (2, 1), (3, 1), (3, 2), (4, 1)]:
        r = qd.bessel_moment(n, k)
        scale = 2.0 ** (n - k + 1) / (math.factorial(n) * math.factorial(k))
        entry = cat.ising_c(n, k, "auto", 1e-9)
        assert entry.value == pytest.approx(scale * r.value, abs=5e-8)


def test_ising_series_path_n3():
    r = cat.ising_c(3, 2, "series", 1e-9)
    o = cat.ising_c(3, 2, "oracle")
    assert r.value == pytest.approx(o.value, abs=1e-8)


def test_ising_c4_series_is_marginal():
    # the n=4 residue series sits on |x| = 1 (the Meijer-G argument): the
    # ray test refuses the direction, or the summation reports slow convergence
    with pytest.raises((SlowConvergence, NoCover)):
        cat.ising_c(4, 1, "series", 1e-10)


# ---------------------------------------------------------------------------
# parametrized Ising entries


def test_c3_param_four_way_agreement():
    k, exps = 1, (0.5, 1.0 / 3.0, 0.25)
    rs = [cat.ising_c_param(3, k, exps, m, 1e-8)
          for m in ("closed", "contour", "series", "oracle")]
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            assert rs[i].value == pytest.approx(rs[j].value, abs=1e-6)
    assert rs[1].value == pytest.approx(2.1339001148123753, abs=1e-8)


def test_c3_param_unit_exponents_refused_honestly():
    # the defining integral diverges once the exponent sum reaches k+1
    # (volume growth beats the denominator): both routes must refuse rather
    # than return a number for a divergent definition
    from mbeval.errors import InfeasibleContour
    with pytest.raises(InfeasibleContour):
        cat.ising_c_param(3, 1, (1.0, 1.0, 1.0), "contour", 1e-9)
    with pytest.raises(DomainError):
        cat.ising_c_param(3, 1, (1.0, 1.0, 1.0), "oracle")


def test_c3_param_continuation_near_unit_is_not_c3():
    # the analytic continuation of the definition through the closed form does
    # not coincide with C_{3,1}: the unit-exponent identity belongs to a
    # different normalization of the parametrized family
    v = cat._c3_param_closed(1.0, 1.0, 1.0, 1.0001, 1e-13)
    assert abs(v - cat.ising_c(3, 1, "oracle").value) > 1.0


def test_c3_param_closed_rejects_integer_gamma():
    with pytest.raises(DegenerateParameters):
        cat.ising_c_param(3, 1, (0.5, 0.5, 1.0), "closed")


def test_c4_param_contour_vs_oracle():
    for k, exps in [(2, (0.5, 1.0 / 3.0, 0.25, 0.6)), (2, (0.9, 0.8, 0.3, 0.5))]:
        r = cat.ising_c_param(4, k, exps, "contour", 1e-9)
        o = cat.ising_c_param(4, k, exps, "oracle")
        assert r.value == pytest.approx(o.value, abs=2e-8)


def test_c4_param_unit_exponents_refused_honestly():
    from mbeval.errors import InfeasibleContour
    with pytest.raises(InfeasibleContour):
        cat.ising_c_param(4, 1, (1.0, 1.0, 1.0, 1.0), "contour", 1e-9)
    with pytest.raises(DomainError):
        cat.ising_c_param(4, 1, (1.0, 1.0, 1.0, 1.0), "oracle")


@pytest.mark.parametrize("n", [3, 4])
def test_param_auto_names_every_refusal(n):
    # the contour refusal (InfeasibleContour) no longer escapes auto: the
    # oracle is tried, and when it refuses too both reasons are reported
    with pytest.raises(MethodUnavailable) as info:
        cat.ising_c_param(n, 1, (1.0,) * n, "auto", 1e-9)
    msg = str(info.value)
    assert "contour: InfeasibleContour" in msg
    assert "oracle: DomainError" in msg


def test_ising_auto_names_every_refusal(monkeypatch):
    def no_closed(n, k, tol):
        raise NoClosedForm("withheld")

    def no_oracle(*args):
        raise DomainError("withheld")
    monkeypatch.setattr(cat, "_ising_closed", no_closed)
    monkeypatch.setattr(cat.qd, "bessel_moment", no_oracle)
    with pytest.raises(MethodUnavailable) as info:
        cat.ising_c(2, 1, "auto")
    msg = str(info.value)
    assert "unknown method" not in msg
    assert "closed: NoClosedForm: withheld" in msg
    assert "contour: MethodUnavailable" in msg
    assert "oracle: DomainError: withheld" in msg


# ---------------------------------------------------------------------------
# C5(alpha, beta)


def test_c5_param_series_inside_convergence():
    rs = cat.c5_param(1, F(1, 25), F(1, 25), "series", 1e-8)
    rc = cat.c5_param(1, 0.04, 0.04, "contour", 1e-9)
    assert rs.value == pytest.approx(rc.value, abs=1e-6)


def test_c5_param_no_cover_at_unit():
    with pytest.raises(NoCover):
        cat.c5_param(1, 1.0, 1.0, "series", 1e-8)


def test_c5_param_contour_at_unit_matches_moment():
    r = cat.c5_param(1, 1.0, 1.0, "contour", 1e-9)
    o = cat.ising_c(5, 1, "oracle")
    assert r.value == pytest.approx(o.value, abs=1e-7)


# ---------------------------------------------------------------------------
# box integrals


def test_b1_closed():
    assert cat.box_b(1, 1.0, "closed").value == 0.5
    with pytest.raises(PoleError):
        cat.box_b(1, -1.0, "closed")


def test_b2_closed_vs_qmc():
    closed = cat.box_b(2, 1.0, "closed", 1e-10)
    qmc = cat.box_b(2, 1.0, "oracle", 1e-6)
    assert closed.value == pytest.approx(qmc.value, abs=3e-6)
    assert closed.value == pytest.approx(0.765195716464, abs=1e-9)


def test_b2_contour_vs_closed_sweep():
    for s in (-1.5, -0.5, 0.5, 1.0, 1.5, 3.0):
        c = cat.box_b(2, s, "contour", 1e-9).value
        cl = cat.box_b(2, s, "closed", 1e-12).value
        assert c == pytest.approx(cl, abs=1e-8)


def test_b3_contour_vs_onedim_and_qmc():
    contour = cat.box_b(3, 1.0, "contour", 1e-8)
    onedim = cat.box_b(3, 1.0, "oracle", 1e-10)
    qmc = qd.cube_integral(3, "B", 1.0, 1e-6)
    assert contour.value == pytest.approx(onedim.value, abs=1e-7)
    assert contour.value == pytest.approx(qmc.value, abs=4e-6)
    assert onedim.value == pytest.approx(0.9605919564550528, abs=1e-10)


def test_bn_even_moments_exact():
    for n in range(1, 5):
        assert cat.box_b(n, 2.0, "closed").value == pytest.approx(n / 3.0, rel=1e-15)
    assert cat.box_b(2, 4.0, "closed").value == pytest.approx(28.0 / 45.0, rel=1e-14)
    assert cat.box_b(1, 0.0, "closed").value == 1.0


def test_b3_contour_matches_onedim_above_two():
    for s in (3.0, 5.0):
        c = cat.box_b(3, s, "contour", 1e-8).value
        o = cat.box_b(3, s, "oracle", 1e-11).value
        assert c == pytest.approx(o, abs=1e-7)


def test_box_contour_rejects_even_integer_s():
    with pytest.raises(MethodUnavailable):
        cat.box_b(3, 0.0, "contour")
    with pytest.raises(MethodUnavailable):
        cat.box_b(3, 2.0, "contour")


# ---------------------------------------------------------------------------
# delta relations


def test_delta1_exact():
    assert cat.delta(1, 1.0).value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_delta_derived_matches_printed_relations():
    # the printed two- and three-point relations, transcribed verbatim
    def b2(x):
        return cat._box_closed(2, x, 1e-12).value

    def b3(x):
        return cat._box_b3_onedim(x, 1e-10).value

    def printed2(s):
        return (8 * (2 ** (s / 2 + 1) * (s + 3) + 1) / ((s + 2) * (s + 3) * (s + 4))
                + 4 * b2(s) - 4 * (s + 4) / (s + 2) * b2(s + 2))

    def printed3(s):
        return (24 * ((s + 5) * (2 ** (s / 2 + 3) - 3 ** (s / 2 + 2)) + 1)
                / ((s + 2) * (s + 4) * (s + 5) * (s + 6))
                + 24 / (s + 2) * b2(s + 2)
                - 24 * (s + 6) / ((s + 2) * (s + 4)) * b2(s + 4)
                - 12 * (s + 5) / (s + 2) * b3(s + 2)
                + 4 * (s + 6) * (s + 7) / ((s + 2) * (s + 4)) * b3(s + 4)
                + 8 * b3(s))

    for s in (1.0, 2.0, 3.0):
        assert cat.delta(2, s).value == pytest.approx(printed2(s), abs=1e-9)
        assert cat.delta(3, s).value == pytest.approx(printed3(s), abs=1e-9)


def test_delta_printed_five_point_relation_is_defective():
    # the printed Delta_5 fails its own s=2 analytic check by -68.26; the
    # derived relation is used instead (see the derivation in delta_b_terms)
    s = 2
    b = lambda n, x: float(cat._box_even_moment(n, int(x) // 2))
    printed = (160 * (1 + (9 + s) * (2 ** (6 + s / 2) + 2 ** (10 + s)
                                     - 5 ** (4 + s / 2) - 2 * 3 ** (5 + s / 2)))
               / ((2 + s) * (4 + s) * (6 + s) * (8 + s) * (9 + s) * (10 + s))
               + 320 / ((2 + s) * (4 + s) * (6 + s)) * b(2, 6 + s)
               + 320 / ((2 + s) * (4 + s)) * b(3, 4 + s)
               - 320 * (10 + s) / ((2 + s) * (4 + s) * (6 + s) * (8 + s)) * b(2, 8 + s)
               - 480 * (9 + s) / ((2 + s) * (4 + s) * (6 + s)) * b(3, 6 + s)
               + 160 / (2 + s) * b(4, 2 + s)
               - 880 / 3 * (8 + s) / ((2 + s) * (4 + s)) * b(4, 4 + s)
               + 80 / 3 * (10 + s) * (55 + 6 * s) / ((2 + s) * (4 + s) * (6 + s)) * b(4, 6 + s)
               - 80 / 3 * (10 + s) * (11 + s) * (12 + s)
               / ((2 + s) * (4 + s) * (6 + s) * (8 + s)) * b(4, 8 + s)
               + 32 * b(5, s)
               - 200 * (7 + s) / (6 + 3 * s) * b(5, 2 + s)
               + 4 / 3 * (9 + s) * (291 + 35 * s) / ((2 + s) * (4 + s)) * b(5, 4 + s)
               - 8 / 3 * (10 + s) * (11 + s) * (47 + 5 * s)
               / ((2 + s) * (4 + s) * (6 + s)) * b(5, 6 + s)
               + 4 / 3 * (10 + s) * (11 + s) * (12 + s) * (13 + s)
               / ((2 + s) * (4 + s) * (6 + s) * (8 + s)) * b(5, 8 + s))
    assert abs(printed - 5.0 / 6.0) > 1.0
    assert cat.delta(5, 2.0).value == pytest.approx(5.0 / 6.0, abs=1e-10)


def test_delta_even_s_exact():
    assert cat.delta(4, 2.0).value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cat.delta(5, 2.0).value == pytest.approx(5.0 / 6.0, abs=1e-10)


def test_delta2_relation_vs_qmc():
    rel = cat.delta(2, 1.0)
    qmc = cat.delta(2, 1.0, "oracle", 1e-6)
    assert rel.value == pytest.approx(qmc.value, abs=3e-6)


def test_delta_pole_guard():
    with pytest.raises(PoleError):
        cat.delta(1, -1.0)


# ---------------------------------------------------------------------------
# jellium


def test_jellium_closed_value():
    v = cat.jellium(3, "closed").value
    expect = math.pi / 2 + 2 - 6 * math.atanh(1 / math.sqrt(3))
    assert v == pytest.approx(expect, abs=1e-14)
    assert v == pytest.approx(-0.3800773639795545, abs=1e-12)


def test_jellium_closed_chain_and_contour_agree():
    closed = cat.jellium(3, "closed").value
    oracle = cat.jellium(3, "oracle", 1e-8).value   # via the B3 representation
    contour = cat.jellium(3, "contour", 1e-7).value
    assert oracle == pytest.approx(closed, abs=1e-8)
    assert contour == pytest.approx(closed, abs=1e-6)


def test_jellium_requires_n_at_least_3():
    with pytest.raises(ValueError):
        cat.jellium(2)


# ---------------------------------------------------------------------------
# ruby


def test_ruby_series_equals_oracle():
    r1 = cat.ruby(0, 3.0, [1, 1], [1, 1], "series", 1e-12)
    r2 = cat.ruby(0, 3.0, [1, 1], [1, 1], "oracle", 1e-11)
    assert r1.value == pytest.approx(r2.value, abs=1e-8)


def test_ruby_single_bessel_closed_identity():
    # int e^{-kd} J0(kR) dk = 1/sqrt(d^2+R^2)
    for d, r in [(2.0, 1.0), (3.0, 1.5)]:
        got = cat.ruby(0, d, [0], [r], "series", 1e-13).value
        assert got == pytest.approx(1.0 / math.sqrt(d * d + r * r), abs=1e-10)


def test_ruby_ac_series_outside_fc_region():
    got = cat.ruby(0, 0.5, [0], [1], "ac-series", 1e-12).value
    assert got == pytest.approx(1.0 / math.sqrt(0.25 + 1.0), abs=1e-6)
    oracle = cat.ruby(0, 0.5, [0], [1], "oracle", 1e-11).value
    assert got == pytest.approx(oracle, abs=1e-6)
    with pytest.raises(OutsideROC):
        cat.ruby(0, 0.5, [0], [1], "series")


def test_ruby_empty_product():
    assert cat.ruby(0, 2.5, [], [], "series").value == pytest.approx(0.4, rel=1e-12)


def test_ruby_disk_formula():
    r1 = cat.ruby_disk(4.0, 1.0, 2.0, "series", 1e-11)
    r2 = cat.ruby_disk(4.0, 1.0, 2.0, "oracle", 1e-11)
    assert r1.value == pytest.approx(r2.value, abs=1e-9)


def test_ruby_divergent_at_origin():
    with pytest.raises(DomainError):
        cat.ruby(-1, 1.0, [], [])


# ---------------------------------------------------------------------------
# H1 entry


def test_h1_four_methods():
    rs = [cat.h1(1.0, 0.5, m, 1e-9)
          for m in ("closed", "contour", "series", "oracle")]
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            assert rs[i].value == pytest.approx(rs[j].value, abs=1e-7)
    assert rs[0].value == pytest.approx(3.3874468577681576, abs=1e-10)


def test_h_of_a():
    assert cat.h_of_a(2.0).value == pytest.approx(math.pi ** 2 / 8, rel=1e-14)


# ---------------------------------------------------------------------------
# cross-method pairwise invariant on a compact grid


def test_cross_method_grid():
    grid = [
        ("ising", dict(n=3, k=1), ["closed", "contour", "oracle"]),
        ("ising", dict(n=4, k=2), ["contour", "oracle"]),
        ("box", dict(n=2, s=0.5), ["closed", "contour", "oracle"]),
        ("box", dict(n=3, s=-0.5), ["contour", "oracle"]),
        ("delta", dict(n=3, s=2.0), ["relation", "oracle"]),
    ]
    for entry, p, methods in grid:
        vals = []
        for m in methods:
            if entry == "ising":
                r = cat.ising_c(p["n"], p["k"], m, 1e-8)
            elif entry == "box":
                r = cat.box_b(p["n"], p["s"], m, 1e-8)
            else:
                r = cat.delta(p["n"], p["s"], m, 1e-6)
            vals.append(r)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                allow = 2 * max(vals[i].abs_err_est, vals[j].abs_err_est, 1e-12)
                assert abs(vals[i].value - vals[j].value) <= allow


def test_catalog_registry_drives_the_cli(capsys):
    assert [e.id for e in cat.REGISTRY] == ["h1", "ising", "ising-param", "c5", "box",
                                            "delta", "jellium", "ruby"]
    for e in cat.REGISTRY:
        # every entry is cross-checked by at least two routes in the default suite
        assert any(suite == "all" and len(methods) >= 2
                   for _, methods, suite, _ in e.verify)
        # its first verify row, route by route, through the generated subcommand
        params, methods, _, tol_floor = e.verify[0]
        argv = [e.id, "--tol", str(max(1e-6, tol_floor))]
        for name, value in params.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{name}", text]
        for m in methods:
            assert cli.dispatch(argv + ["--method", m]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["entry"] == e.id and report["params"] == params
            assert report["pass"] is True
    assert cli.dispatch(["verify", "--suite", "nonsense"]) == 64
