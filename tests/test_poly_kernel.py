"""The packed ChartPolynomial kernel against a plain reference.

The reference below holds a polynomial as {exponent tuple: GaussianRational}
and does every operation term by term, the obvious way.  The kernel must
give the same terms on random polynomials with non-trivial denominators,
and its internal form must be canonical: one denominator d > 0, no factor
shared by d and every numerator pair, no zero pair.  Equal values then have
equal fields and so equal bytes.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wickstar.expr import (
    EXPONENT_LIMIT,
    ChartExpr,
    ChartPolynomial,
    ExprError,
    GaussianRational,
    var_name,
)

settings.register_profile("kernel", max_examples=60, deadline=None)
settings.load_profile("kernel")

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


# -- the reference -------------------------------------------------------------


def ref_clean(terms):
    return {e: c for e, c in terms.items() if not c.is_zero()}


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, ZERO) + (c if sign > 0 else -c)
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return ref_clean(out)


def ref_scale(p, value):
    return ref_clean({e: c * value for e, c in p.items()})


def ref_derivative(p, index):
    out = {}
    for e, c in p.items():
        if e[index]:
            new = list(e)
            new[index] -= 1
            out[tuple(new)] = c * e[index]
    return out


def ref_conjugate(p, nvars):
    n = nvars // 2
    return {e[n:] + e[:n]: c.conjugate() for e, c in p.items()}


def ref_exact_div(p, b):
    lead = max(b)
    rem, out = dict(p), {}
    while rem:
        r = max(rem)
        q = tuple(x - y for x, y in zip(r, lead))
        if min(q) < 0:
            return None
        qc = rem[r] / b[lead]
        out[q] = qc
        for e, c in b.items():
            k = tuple(x + y for x, y in zip(q, e))
            rem[k] = rem.get(k, ZERO) - qc * c
            if rem[k].is_zero():
                del rem[k]
    return out


def ref_render(p, nvars):
    if not p:
        return "0"
    n = nvars // 2
    pieces = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(var_name(i, n) + (f"^{x}" if x > 1 else "") for i, x in enumerate(e) if x)
        text, atomic = c.render()
        if not mono:
            piece = text if atomic or text.startswith("-") else f"({text})"
        elif c == ONE:
            piece = mono
        elif c == -ONE:
            piece = f"-{mono}"
        elif atomic or (text.startswith("-") and "+" not in text and " - " not in text):
            piece = f"{text}*{mono}"
        else:
            piece = f"({text})*{mono}"
        pieces.append(piece)
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


# -- strategies and the invariant --------------------------------------------------


def gaussian(draw):
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    re = Fraction(draw(st.integers(-6, 6)), den)
    im = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3])))
    return GaussianRational(re, im if draw(st.booleans()) else 0)


@st.composite
def polys(draw, nvars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = gaussian(draw)
    return ref_clean(terms)


NVARS = st.sampled_from([2, 4])


def check(poly, ref):
    """The kernel value equals the reference and its fields are canonical."""
    assert dict(poly.terms) == ref
    pairs = list(poly._t.values())
    assert poly._d > 0
    assert math.gcd(poly._d, *(x for pair in pairs for x in pair)) == 1
    assert all(a or b for a, b in pairs)
    assert poly == ChartPolynomial(poly.nvars, ref)
    assert poly.render() == ref_render(ref, poly.nvars)


# -- properties ------------------------------------------------------------------


@given(st.data())
def test_ring_operations_match_the_reference(data):
    nvars = data.draw(NVARS)
    p, q = data.draw(polys(nvars)), data.draw(polys(nvars))
    P, Q = ChartPolynomial(nvars, p), ChartPolynomial(nvars, q)
    check(P, p)
    check(P + Q, ref_add(p, q))
    check(P - Q, ref_add(p, q, -1))
    check(P - P, {})
    check(-P, ref_scale(p, -ONE))
    check(P * Q, ref_mul(p, q))
    value = gaussian(data.draw)
    check(P.scale(value), ref_scale(p, value))
    index = data.draw(st.integers(0, nvars - 1))
    check(P.derivative(index), ref_derivative(p, index))
    check(P.conjugate(), ref_conjugate(p, nvars))


# the second size has dividends of up to 12 terms, so the long division
# creates, cancels and creates again keys of its remainder
@pytest.mark.parametrize("size", [(4, 3, 3), (12, 4, 4)], ids=["small", "large"])
@given(data=st.data())
def test_exact_division_matches_the_reference(size, data):
    max_terms, max_divisor_terms, max_exp = size
    nvars = data.draw(NVARS)
    a = data.draw(polys(nvars, max_terms=max_terms, max_exp=max_exp))
    b = data.draw(polys(nvars, max_terms=max_divisor_terms, max_exp=max_exp).filter(bool))
    B = ChartPolynomial(nvars, b)
    product = ref_mul(a, b)
    check(ChartPolynomial(nvars, product).exact_div(B), a)
    # a perturbed dividend divides exactly only when the reference says so
    extra = data.draw(polys(nvars, max_terms=2, max_exp=max_exp))
    p = ref_add(product, extra)
    got = ChartPolynomial(nvars, p).exact_div(B)
    want = ref_exact_div(p, b)
    if want is None:
        assert got is None
    else:
        check(got, want)


@given(st.data())
def test_exact_division_by_a_binomial(data):
    nvars = data.draw(NVARS)
    shift = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
    if not any(shift):
        shift = (1,) * nvars
    c = gaussian(data.draw)
    if c.is_zero():
        c = ONE
    # X^s + c is the shape of a monic base entry such as z1*zb1 - 1
    factor = ChartPolynomial(nvars, {shift: ONE, (0,) * nvars: c})
    f = dict(factor.terms)
    square = ref_mul(f, f)
    a = data.draw(polys(nvars))
    once = ref_mul(a, f)
    product = ref_mul(once, f)
    check(ChartPolynomial(nvars, once).exact_div(factor), a)
    check(ChartPolynomial(nvars, product).exact_div(factor), once)
    check(ChartPolynomial(nvars, product).exact_div(ChartPolynomial(nvars, square)), a)
    for divisor, ref in ((factor, f), (ChartPolynomial(nvars, square), square)):
        p = ref_add(product, data.draw(polys(nvars, max_terms=2)))
        got = ChartPolynomial(nvars, p).exact_div(divisor)
        want = ref_exact_div(p, ref)
        if want is None:
            assert got is None
        else:
            check(got, want)


def test_terms_view_reads_tuples_and_gaussian_rationals():
    p = ChartPolynomial(2, {(2, 1): GaussianRational(Fraction(1, 2), 3), (0, 0): 5})
    assert len(p.terms) == 2
    assert p.terms[(2, 1)] == GaussianRational(Fraction(1, 2), 3)
    assert p.terms.get((1, 1)) is None
    assert (0, 0) in p.terms and (9, 9) not in p.terms
    assert dict(p.terms) == {(2, 1): GaussianRational(Fraction(1, 2), 3), (0, 0): GaussianRational(5)}


# -- exponent overflow -------------------------------------------------------------


def test_constructor_refuses_an_exponent_at_the_limit():
    ChartPolynomial(2, {(EXPONENT_LIMIT - 1, 0): ONE})
    with pytest.raises(ExprError):
        ChartPolynomial(2, {(EXPONENT_LIMIT, 0): ONE})
    with pytest.raises(ExprError):
        ChartPolynomial(2, {(0, -1): ONE})


def test_product_crossing_the_limit_raises():
    half = EXPONENT_LIMIT // 2
    x = ChartPolynomial(4, {(0, half, 0, 0): ONE, (0, 0, 1, 0): ONE})
    assert (x * ChartPolynomial(4, {(0, half - 1, 0, 0): ONE})).terms[(0, 2 * half - 1, 0, 0)] == ONE
    with pytest.raises(ExprError):
        x * x
    with pytest.raises(ExprError):
        ChartPolynomial(4, {(0, half, 0, 0): ONE}) * ChartPolynomial(4, {(0, half, 0, 0): ONE})
    # through ChartExpr, as the engine meets it
    z = ChartExpr(ChartPolynomial(2, {(0, EXPONENT_LIMIT - 1): ONE}))
    with pytest.raises(ExprError):
        z * ChartExpr.variable(1, 1)


def test_quotient_exponent_never_borrows_from_the_next_variable():
    # z1 / zb1: the zb1 exponent of a quotient would go negative
    z1 = ChartPolynomial(2, {(1, 0): ONE})
    zb1 = ChartPolynomial(2, {(0, 1): ONE})
    assert z1.exact_div(zb1) is None
    assert (z1 * zb1).exact_div(zb1) == z1
