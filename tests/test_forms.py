"""Differential forms: the generic operations on the mask-keyed Form."""

import pytest
from hypothesis import given, settings, strategies as st

from wickstar import weyl
from wickstar.chart import Form, OneForm, TwoForm
from wickstar.expr import ChartExpr, ChartPolynomial, GaussianRational


def _polynomials(n):
    """Random polynomials in the 2n coordinates: up to four terms, exponents
    up to 2, small nonzero Gaussian-integer coefficients."""
    exponent = st.tuples(*[st.integers(0, 2)] * (2 * n))
    coeff = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda c: not c.is_zero()
    )
    return st.dictionaries(exponent, coeff, max_size=4).map(
        lambda terms: ChartExpr(ChartPolynomial(2 * n, terms))
    )


@st.composite
def forms(draw, degree):
    """A random form of the given degree on a chart of dimension 1 or 2."""
    n = draw(st.sampled_from((1, 2)))
    masks = [m for m in range(1 << (2 * n)) if bin(m).count("1") == degree]
    return Form(n, draw(st.dictionaries(st.sampled_from(masks), _polynomials(n), max_size=4)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(forms))
def test_d_squared_vanishes(form):
    assert form.d().d().is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(forms))
def test_conjugate_matches_conj_C(form):
    assert form.conjugate().to_weyl() == weyl.conj_C(form.to_weyl())


@pytest.mark.parametrize("k, l", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_interior_of_a_mixed_two_form(k, l):
    one = ChartExpr.one(2)
    form = TwoForm(2, hm={(k, l): one})
    assert form.interior(k) == OneForm(2, ahol={l: one})
    assert form.interior(2 + l) == OneForm(2, hol={k: -one})
    assert form.interior(1 - k).is_zero()


def test_conjugate_of_a_mixed_two_form():
    """conj(c dz^k ^ dzb^l) = conj(c) dzb^k ^ dz^l = -conj(c) dz^l ^ dzb^k."""
    c = ChartExpr.constant(2, GaussianRational(1, 2))
    form = TwoForm(2, hh={(0, 1): c}, hm={(0, 1): c})
    assert form.conjugate() == TwoForm(2, hm={(1, 0): -c.conjugate()}, aa={(0, 1): c.conjugate()})


def test_render_orders_by_type_then_word():
    """(2,0) before (1,1) before (0,2), each in the order of its word, as the
    typed blocks hh, hm, aa were rendered."""
    one = ChartExpr.one(3)
    form = TwoForm(3, hh={(1, 2): one}, hm={(1, 0): one, (0, 1): one, (0, 0): one},
                   aa={(0, 1): one})
    assert form.render() == (
        "(1) dz2^dz3 + (1) dz1^dzb1 + (1) dz1^dzb2 + (1) dz2^dzb1 + (1) dzb1^dzb2"
    )
