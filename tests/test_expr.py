"""Exact arithmetic layer: parsing, field operations, calculus, reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from wickstar.expr import (
    ChartExpr,
    ChartPolynomial,
    ExprDivisionError,
    GaussianRational,
    MAX_EXPONENT,
    MAX_POWER_DEGREE,
    ParseError,
    parse,
    reduce,
)

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


def test_parse_monomial():
    e = parse("z1*zb1", 1)
    assert e.serialize() == "(z1*zb1) / (1)"


def test_parse_rational_function():
    e = parse("1/(1 - z1*zb1)", 1)
    assert e == parse("1", 1) / parse("1 - z1*zb1", 1)
    assert not e.is_polynomial()


def test_parse_zero_denominator():
    with pytest.raises(ParseError):
        parse("z2/0", 2)


def test_parse_out_of_range_variable():
    with pytest.raises(ParseError):
        parse("z3", 2)
    with pytest.raises(ParseError):
        parse("zb2", 1)


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("z1 + * zb1", 1)
    assert err.value.position == 5


def test_parse_negative_exponent_atoms_only():
    assert parse("z1^-2", 1) == ChartExpr.one(1) / parse("z1^2", 1)
    with pytest.raises(ParseError):
        parse("(1 + z1)^-1", 1)


def test_round_trip_idempotent():
    for text in ("(2*z1*zb1 - 2) / (1)", "z1^2*zb1 + 3/4", "(1 - 2*i)*z1 + i",
                 "1/(1 - z1*zb1)^2", "z1^3/(2 + zb1)"):
        once = parse(text, 1).serialize()
        assert parse(once, 1).serialize() == once


def test_arith_examples():
    z, zb = parse("z1", 1), parse("zb1", 1)
    assert z * zb == parse("z1*zb1", 1)
    e = parse("1/(1 - z1*zb1)", 1)
    assert e + e == parse("2/(1 - z1*zb1)", 1)
    with pytest.raises(ExprDivisionError):
        parse("1", 1) / parse("0", 1)


def test_differentiate_examples():
    assert parse("z1^2*zb1", 1).differentiate(0) == parse("2*z1*zb1", 1)
    assert parse("1/(1 - z1*zb1)", 1).differentiate(1) == parse("z1/(1 - z1*zb1)^2", 1)
    assert parse("zb1^3", 1).differentiate(0).is_zero()


def test_conjugate_examples():
    assert parse("i*z1", 1).conjugate() == parse("-i*zb1", 1)
    sym = parse("1/(1 - z1*zb1)", 1)
    assert sym.conjugate() == sym
    assert parse("2 + 3*i", 1).conjugate() == parse("2 - 3*i", 1)


def test_reduce_examples():
    base = [parse("1 - z1*zb1", 1).num]
    assert reduce(parse("(1 - z1*zb1)^2/(1 - z1*zb1)", 1), base) == parse("1 - z1*zb1", 1)
    untouched = parse("z1/(1 - z1*zb1)", 1)
    assert reduce(untouched, base) == untouched
    zero = parse("0", 1) / parse("1 - z1*zb1", 1)
    assert zero.is_zero() and zero.den == ChartPolynomial.one(2)


def test_reduce_rejects_constant_base():
    with pytest.raises(Exception):
        reduce(parse("z1", 1), [parse("2", 1).num])


def test_denominator_normalization():
    e = parse("1/(2 - 2*z1*zb1)", 1)
    _, lead = e.den.leading()
    assert lead == GaussianRational(1)


# -- property-based checks ---------------------------------------------------

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(small_fraction), draw(small_fraction))


@st.composite
def polynomials(draw, n=1):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(2 * n))
        coeff = draw(gaussian_rationals())
        if not coeff.is_zero():
            terms[exp] = coeff
    return ChartExpr(ChartPolynomial(2 * n, terms))


@st.composite
def rationals(draw, n=1):
    num = draw(polynomials(n))
    den = draw(polynomials(n))
    if den.is_zero():
        den = ChartExpr.one(n)
    return num / den


@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(rationals())
def test_field_inverse(a):
    if not a.is_zero():
        assert a / a == ChartExpr.one(1)
        assert a * (ChartExpr.one(1) / a) == ChartExpr.one(1)


@given(rationals(), rationals(), st.integers(0, 1))
def test_leibniz_rule(a, b, var):
    lhs = (a * b).differentiate(var)
    rhs = a.differentiate(var) * b + a * b.differentiate(var)
    assert lhs == rhs


@given(rationals())
def test_mixed_partials_commute(a):
    assert a.differentiate(0).differentiate(1) == a.differentiate(1).differentiate(0)


@given(rationals(), rationals())
def test_conjugation_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@given(polynomials(), st.integers(1, 3))
def test_reduce_agrees_with_cross_multiplication(numer, power):
    """On a corpus with known full cancellation, trial division by the base
    recovers the syntactically reduced representative."""
    base_poly = parse("1 - z1*zb1", 1).num
    blown = (numer * parse("(1 - z1*zb1)", 1) ** power) / (parse("1 - z1*zb1", 1) ** power)
    reduced = reduce(blown, [base_poly])
    assert reduced == numer
    assert reduced.num == numer.num and reduced.den == numer.den


# -- canonical form over a factor base ------------------------------------------

DISK_FACTOR = parse("1 - z1*zb1", 1).num
CP1_FACTOR = parse("1 + z1*zb1", 1).num
FACTOR_BASES = {
    "disk": (DISK_FACTOR,),
    "cp1": (CP1_FACTOR,),
    "both": (DISK_FACTOR, CP1_FACTOR),
}


def test_base_factor_cancels_against_its_inverse():
    base = FACTOR_BASES["disk"]
    product = parse("1 - z1*zb1", 1, base) * parse("1/(1 - z1*zb1)", 1, base)
    assert product.serialize() == "(1) / (1)"


def test_derivative_along_a_coordinate_the_denominator_lacks_is_reduced():
    base = (parse("1 - z1*zb1", 2).num,)
    e = parse("(z2*(1 - z1*zb1) + 1)/(1 - z1*zb1)", 2, base)
    assert e.differentiate(1).serialize() == "(1) / (1)"


def test_exponent_cap():
    assert parse(f"z1^{MAX_EXPONENT}", 1) == parse("z1", 1) ** MAX_EXPONENT
    for text in (f"z1^{MAX_EXPONENT + 1}", f"z1^-{MAX_EXPONENT + 1}", "z1^3000000"):
        with pytest.raises(ParseError):
            parse(text, 1)


def test_power_degree_cap():
    """Nested powers multiply their exponents; the result's degree is capped."""
    assert parse(f"(z1*zb1)^{MAX_POWER_DEGREE // 2}", 1) == parse("z1*zb1", 1) ** (MAX_POWER_DEGREE // 2)
    for text in ("((z1+zb1)^64)^64", "(z1*zb1)^33", "(1/(1 - z1*zb1))^33"):
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse(text, 1)


@st.composite
def over_base(draw, base):
    """A value built by random ring operations, division by base factors,
    coordinates and constants, and differentiation: its denominator factors
    over the base and the coordinates."""
    factors = [ChartExpr(b, base=base) for b in base]
    units = factors + [parse(t, 1, base) for t in ("z1", "zb1", "3", "1 + i")]
    atoms = units + [parse(t, 1, base) for t in ("0", "2*z1*zb1 - i", "zb1^2")]
    atoms += [ChartExpr.one(1).with_base(base) / u for u in factors]
    unit = st.sampled_from(units)

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda p: p[0] + p[1]),
            pair.map(lambda p: p[0] - p[1]),
            pair.map(lambda p: p[0] * p[1]),
            st.tuples(children, unit).map(lambda p: p[0] / p[1]),
            st.tuples(children, st.integers(0, 1)).map(lambda p: p[0].differentiate(p[1])),
        )

    return draw(st.recursive(st.sampled_from(atoms), extend, max_leaves=6))


@st.composite
def triples_over_a_base(draw):
    base = FACTOR_BASES[draw(st.sampled_from(sorted(FACTOR_BASES)))]
    return base, draw(over_base(base)), draw(over_base(base)), draw(over_base(base))


@given(triples_over_a_base(), st.integers(0, 1))
def test_equal_values_serialize_equally(case, var):
    """x == y implies x.serialize() == y.serialize() for values whose
    denominators factor over the base: pairs of equal values are built
    along different routes."""
    base, a, b, c = case
    u = ChartExpr(base[-1], base=base)
    pairs = [
        (a * (b + c), a * b + a * c),
        ((a + b) - b, a),
        ((a * u) / u, a),
        ((a / u) * u, a),
        ((a - c) + (c - b), a - b),
        ((a * b).differentiate(var), a.differentiate(var) * b + a * b.differentiate(var)),
        (parse(a.serialize(), 1, base), a),
    ]
    for x, y in pairs:
        assert x == y
        assert x.serialize() == y.serialize()
