"""Property tests on random inputs: the integer contour LP against its Fraction
reference, and the round trips of linear forms and MB JSON documents."""
import json
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mbeval import cli  # noqa: E402
from mbeval import mellin as ml  # noqa: E402
from mbeval.errors import InfeasibleContour  # noqa: E402
from mbeval.symcore import GammaFactor, LinearForm  # noqa: E402
from test_mellin import _choose_contour_by_inverse  # noqa: E402

small = st.fractions(-3, 3, max_denominator=3)
rationals = st.fractions(-40, 40, max_denominator=12)
names = st.from_regex(r"[a-z_][a-z0-9_]{0,3}", fullmatch=True)


def _forms(symbols, coeffs):
    return st.builds(lambda cs, c: LinearForm(dict(zip(symbols, cs)), c),
                     st.lists(coeffs, min_size=len(symbols), max_size=len(symbols)),
                     coeffs)


@st.composite
def lp_integrands(draw):
    """1-3 z's and 2-6 numerator gammas, each depending on some z."""
    zs = tuple(f"z{i + 1}" for i in range(draw(st.integers(1, 3))))
    z_parts = st.lists(small, min_size=len(zs), max_size=len(zs)).filter(any)
    gammas = tuple(GammaFactor(LinearForm(dict(zip(zs, draw(z_parts))), draw(small)))
                   for _ in range(draw(st.integers(2, 6))))
    return ml.MBIntegrand(zs, F(1), (), (), (), gammas)


@settings(max_examples=60, deadline=None)
@given(lp_integrands())
def test_integer_contour_lp_matches_fraction_reference(mb):
    ref = _choose_contour_by_inverse(mb, {})
    if ref.margin > 0:
        assert ml.choose_contour(mb, {}) == ref
    else:
        with pytest.raises(InfeasibleContour):
            ml.choose_contour(mb, {})


@given(st.builds(LinearForm, st.dictionaries(names, rationals, max_size=4), rationals))
def test_linform_string_round_trip_on_random_forms(form):
    assert cli.linform_from_string(repr(form)) == form


@st.composite
def mb_integrands(draw):
    """Integrands in the order mb_from_json builds them: numerator gammas
    before denominator ones, parameter powers sorted by name."""
    dim = draw(st.integers(1, 3))
    zs = ("z",) if dim == 1 else tuple(f"z{i + 1}" for i in range(dim))
    params = tuple(draw(st.lists(st.sampled_from("abks"), unique=True, max_size=2)))
    forms = _forms(zs + params, rationals)
    num = draw(st.lists(st.builds(GammaFactor, forms, st.integers(1, 3)),
                        min_size=1, max_size=4))
    den = draw(st.lists(st.builds(GammaFactor, forms, st.integers(-2, -1)), max_size=3))
    pref_gammas = draw(st.lists(st.builds(GammaFactor, _forms(params, rationals),
                                          st.sampled_from([-2, -1, 1, 2])), max_size=2))
    powers = draw(st.dictionaries(st.sampled_from(params), forms)) if params else {}
    bases = st.fractions(F(1, 9), 9, max_denominator=9)
    base_powers = draw(st.lists(st.tuples(bases, forms), max_size=2))
    prefactor = draw(rationals.filter(bool))
    return ml.MBIntegrand(zs, prefactor, tuple(pref_gammas), tuple(base_powers),
                          tuple(sorted(powers.items())), tuple(num + den), params)


@given(mb_integrands())
def test_mb_json_round_trip_on_random_integrands(mb):
    doc = cli.mb_to_json(mb)
    back = cli.mb_from_json(doc)
    assert back == mb
    assert json.dumps(cli.mb_to_json(back)) == json.dumps(doc)
