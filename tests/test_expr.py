"""Exact arithmetic layer: parsing, field operations, calculus, reduction."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wickstar.expr import (
    ChartExpr,
    ChartPolynomial,
    ExprDivisionError,
    ExprError,
    GaussianRational,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_TERMS,
    ParseError,
    factor_base,
    parse,
)

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


def test_parse_monomial():
    e = parse("z1*zb1", 1)
    assert e.serialize() == "(z1*zb1) / (1)"


DISK_FACTOR = parse("1 - z1*zb1", 1).num
DISK = (DISK_FACTOR,)


def test_parse_rational_function():
    e = parse("1/(1 - z1*zb1)", 1, DISK)
    assert e == parse("1", 1) / parse("1 - z1*zb1", 1, DISK)
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
    base = DISK + (parse("2 + zb1", 1).num,)
    for text in ("(2*z1*zb1 - 2) / (1)", "z1^2*zb1 + 3/4", "(1 - 2*i)*z1 + i",
                 "1/(1 - z1*zb1)^2", "z1^3/(2 + zb1)"):
        once = parse(text, 1, base).serialize()
        assert parse(once, 1, base).serialize() == once


def test_arith_examples():
    z, zb = parse("z1", 1), parse("zb1", 1)
    assert z * zb == parse("z1*zb1", 1)
    e = parse("1/(1 - z1*zb1)", 1, DISK)
    assert e + e == parse("2/(1 - z1*zb1)", 1, DISK)
    with pytest.raises(ExprDivisionError):
        parse("1", 1) / parse("0", 1)


def test_differentiate_examples():
    assert parse("z1^2*zb1", 1).differentiate(0) == parse("2*z1*zb1", 1)
    assert parse("1/(1 - z1*zb1)", 1, DISK).differentiate(1) == parse("z1/(1 - z1*zb1)^2", 1, DISK)
    assert parse("zb1^3", 1).differentiate(0).is_zero()


def test_conjugate_examples():
    assert parse("i*z1", 1).conjugate() == parse("-i*zb1", 1)
    sym = parse("1/(1 - z1*zb1)", 1, DISK)
    assert sym.conjugate() == sym
    assert parse("2 + 3*i", 1).conjugate() == parse("2 - 3*i", 1)


def test_reduce_examples():
    base = [DISK_FACTOR]
    assert parse("(1 - z1*zb1)^2/(1 - z1*zb1)", 1).with_base(base) == parse("1 - z1*zb1", 1)
    untouched = parse("z1/(1 - z1*zb1)", 1, base)
    assert untouched.with_base(base) == untouched
    zero = parse("0", 1) / parse("1 - z1*zb1", 1)
    assert zero.is_zero() and zero.den == ChartPolynomial.one(2)


def test_reduce_rejects_constant_base():
    with pytest.raises(Exception):
        parse("z1", 1).with_base([parse("2", 1).num])


def test_denominator_normalization():
    e = parse("1/(2 - 2*z1*zb1)", 1, DISK)
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
def units(draw):
    """A nonzero constant times a coordinate monomial times a power of the
    disk factor: a value whose inverse exists over the disk base."""
    coeff = draw(gaussian_rationals().filter(bool))
    mono = ChartPolynomial(2, {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): coeff})
    return ChartExpr(mono * DISK_FACTOR ** draw(st.integers(0, 2)), base=DISK)


@st.composite
def rationals(draw):
    """A random polynomial over a unit: a denominator over the disk base."""
    return draw(polynomials()) / draw(units())


@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(rationals(), units())
def test_field_inverse(a, u):
    one = ChartExpr.one(1)
    if not a.is_zero():
        assert a / a == one
    assert u * (one / u) == one
    assert (a / u) * u == a


def test_denominator_outside_the_base_is_refused():
    """A denominator must factor over the base and the coordinates, unless
    the numerator cancels what is left of it."""
    for text in ("1/(z1 + 2)", "(1 + z1)/(1 + z1)^2", "z1/(1 - z1*zb1)"):
        with pytest.raises(ExprError, match="factor_base"):
            parse(text, 1)
    with pytest.raises(ExprError, match="factor_base"):
        ChartExpr.one(1) / parse("1 + z1", 1)
    assert parse("(1 + z1)/(1 + z1)", 1).serialize() == "(1) / (1)"
    assert parse("(z1 + 2)/(z1 + 2)*zb1", 1).serialize() == "(zb1) / (1)"
    assert parse("(1 + z1)^2*zb1/(2 + 2*z1)", 1).serialize() == "((1/2)*z1*zb1 + (1/2)*zb1) / (1)"


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
    factor = parse("1 - z1*zb1", 1, DISK)
    blown = (numer * factor ** power) / (factor ** power)
    reduced = blown.with_base(DISK)
    assert reduced == numer
    assert reduced.num == numer.num and reduced.den == numer.den


# -- canonical form over a factor base ------------------------------------------

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


def test_nesting_cap():
    """Parentheses and unary minus signs nest up to the cap; one level more
    is a parse error, not an exhausted interpreter stack."""
    z = parse("z1", 1)
    assert parse("(" * MAX_NESTING + "z1" + ")" * MAX_NESTING, 1) == z
    assert parse("-" * MAX_NESTING + "z1", 1) == z
    assert parse("-(" * (MAX_NESTING // 2) + "z1" + ")" * (MAX_NESTING // 2), 1) == z
    for text in ("(" * (MAX_NESTING + 1) + "z1" + ")" * (MAX_NESTING + 1),
                 "(" * 5000 + "z1" + ")" * 5000,
                 "-" * (MAX_NESTING + 1) + "z1"):
        with pytest.raises(ParseError, match="nesting"):
            parse(text, 1)


def test_power_degree_cap():
    """Nested powers multiply their exponents; the result's degree is capped."""
    assert parse(f"(z1*zb1)^{MAX_POWER_DEGREE // 2}", 1) == parse("z1*zb1", 1) ** (MAX_POWER_DEGREE // 2)
    for text in ("((z1+zb1)^64)^64", "(z1*zb1)^33", "(1/(1 - z1*zb1))^33"):
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse(text, 1, DISK)


def test_term_cap():
    """The degree cap does not bound the terms; sums, products, quotients
    and powers are checked on a bound of their terms before computing."""
    five = "(z1+z2+zb1+zb2+1)"
    assert len(parse(f"{five}^8", 2).num.terms) == 495
    # the quotients' denominators factor over their bases
    linear = [parse(f"{c}+z1+z2+zb1+zb2", 2).num for c in range(1, 65)]
    quotient = "/".join(["1"] + [five] * 64)
    fractions = "+".join(f"1/({c}+z1+z2+zb1+zb2)" for c in range(1, 65))
    hostile = (
        (f"{five}^16", ()),
        (f"{five}^64", ()),
        ("*".join([five] * 64), ()),
        (quotient, (parse(five, 2).num,)),
        (fractions, factor_base(linear)),
    )
    for text, base in hostile:
        started = time.perf_counter()
        with pytest.raises(ParseError, match=f"exceeds the cap of {MAX_TERMS}"):
            parse(text, 2, base)
        assert time.perf_counter() - started < 1
    # without a base, the first quotient is refused before any cap is reached
    for text in (quotient, fractions):
        started = time.perf_counter()
        with pytest.raises(ExprError, match="does not factor over the factor base"):
            parse(text, 2)
        assert time.perf_counter() - started < 1


def test_division_by_a_constant_scales_by_its_inverse():
    for text in ("z1*zb1 - i", "(z1 + 2)/(1 - z1*zb1)^2", "0"):
        a = parse(text, 1, DISK)
        for c_text in ("3", "2 - i", "i/2"):
            c = parse(c_text, 1)
            assert a / c == a.scale(c.constant_value().inverse())
            assert (a / c) * c == a


def test_zero_is_shared_and_a_constant_differentiates_to_it():
    zero = ChartExpr.zero(1)
    assert zero is ChartExpr.zero(1)
    assert parse("z1 - z1", 1) is zero
    over_disk = parse("z1 - z1", 1, DISK)
    assert over_disk.base == factor_base(DISK)
    for text in ("3 + i", "0", "zb1"):
        assert parse(text, 1, DISK).differentiate(0) is over_disk
    assert parse("1/(1 - z1*zb1)", 1, DISK).differentiate(0) != over_disk


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


# -- the coefficient kernel ------------------------------------------------------

wide_fraction = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=360),
    st.fractions(max_denominator=10**12),
)


@st.composite
def coefficient_pairs(draw):
    """A GaussianRational and its (re, im) pair of Fractions."""
    re, im = draw(wide_fraction), draw(wide_fraction)
    return GaussianRational(re, im), (Fraction(re), Fraction(im))


def _pair_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pair_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def _pair_render(re, im):
    """The renderer over a pair of Fractions, as coefficients were printed
    when they were held as such a pair."""
    if not im:
        text = str(re)
        return text, "/" not in text and not text.startswith("-")
    if not re:
        if im == 1:
            return "i", True
        if im == -1:
            return "-i", False
        return f"{im}*i", "/" not in str(im) and im > 0
    im_part = "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
    if im > 0:
        return f"{re} + {im_part}", False
    return f"{re} - {im_part.lstrip('-')}", False


def _matches(x, pair):
    """x holds the value of pair, in the normalized triple."""
    assert type(x.a) is int and type(x.b) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert (x.re, x.im) == pair
    same = GaussianRational(*pair)
    assert x == same and hash(x) == hash(same)
    assert x.render() == _pair_render(*pair)
    assert bool(x) == bool(pair[0] or pair[1])


@given(coefficient_pairs(), coefficient_pairs(), st.integers(-5, 5))
@settings(max_examples=300)
def test_coefficient_arithmetic_matches_fraction_pairs(x, y, k):
    (x, xp), (y, yp) = x, y
    _matches(x, xp)
    _matches(x + y, (xp[0] + yp[0], xp[1] + yp[1]))
    _matches(x - y, (xp[0] - yp[0], xp[1] - yp[1]))
    _matches(x * y, _pair_mul(xp, yp))
    _matches(-x, (-xp[0], -xp[1]))
    _matches(x.conjugate(), (xp[0], -xp[1]))
    _matches(x + 3, (xp[0] + 3, xp[1]))
    _matches(x * Fraction(2, 3), (xp[0] * Fraction(2, 3), xp[1] * Fraction(2, 3)))
    one = (Fraction(1), Fraction(0))
    power = one
    for _ in range(abs(k)):
        power = _pair_mul(power, xp)
    if y:
        _matches(x / y, _pair_div(xp, yp))
    else:
        with pytest.raises(ExprDivisionError):
            x / y
    if x:
        _matches(x.inverse(), _pair_div(one, xp))
        _matches(x ** k, power if k >= 0 else _pair_div(one, power))
    else:
        with pytest.raises(ExprDivisionError):
            x.inverse()
        _matches(x ** abs(k), power)


@given(coefficient_pairs(), coefficient_pairs())
@settings(max_examples=300)
def test_coefficients_are_equal_exactly_when_their_values_are(x, y):
    (x, xp), (y, yp) = x, y
    assert (x == y) == (xp == yp)
    assert (x != y) == (xp != yp)
    # the same value reached along another route
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    if not xp[1]:
        assert x == xp[0] and hash(x) == hash(xp[0])


def test_negative_power_inverts():
    assert GaussianRational(2) ** -1 == GaussianRational(Fraction(1, 2))
    assert GaussianRational(0, 2) ** -2 == GaussianRational(Fraction(-1, 4))
    with pytest.raises(ExprDivisionError):
        GaussianRational(0) ** -1


def test_comparison_with_a_non_number_is_false():
    one = GaussianRational(1)
    assert not one == "x"
    assert one != "x"
    assert not one == None  # noqa: E711
    assert one not in ("x", None)


def test_real_values_hash_like_int_and_fraction():
    assert GaussianRational(1) == 1 and hash(GaussianRational(1)) == hash(1)
    half = Fraction(-1, 2)
    assert GaussianRational(half) == half and hash(GaussianRational(half)) == hash(half)
    assert len({1, GaussianRational(1), Fraction(1)}) == 1


def test_dense_power_value():
    """The largest power inside the caps, computed by repeated
    multiplication: the central coefficient is C(64, 32)."""
    power = parse("(z1+zb1+1)^64", 1)
    assert len(power.num.terms) == 2145
    assert power.num.terms[(32, 32)] == math.comb(64, 32)


def test_power_with_rational_and_imaginary_coefficients():
    """Every coefficient of (z1/3 + i*zb1/2 + 2/7)^64 is the multinomial
    term, computed here in Fractions; the coefficients grow big integers."""
    power = parse("(1/3*z1 + i/2*zb1 + 2/7)^64", 1)
    assert power.is_polynomial() and len(power.num.terms) == 2145
    i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    for (p, q), coeff in power.num.terms.items():
        r = 64 - p - q
        magnitude = (Fraction(math.factorial(64), math.factorial(p) * math.factorial(q) * math.factorial(r))
                     * Fraction(1, 3) ** p * Fraction(1, 2) ** q * Fraction(2, 7) ** r)
        re, im = i_powers[q % 4]
        assert coeff == GaussianRational(re * magnitude, im * magnitude)
    assert max(c.d for c in power.num.terms.values()) > 2 ** 64


# -- factored denominators ---------------------------------------------------------

BALL_FACTOR = parse("1 - z1*zb1 - z2*zb2", 2).num
# (dimension, base)
FACTORED_BASES = {
    "disk": (1, (DISK_FACTOR,)),
    "cp1": (1, (CP1_FACTOR,)),
    "ball2": (2, (BALL_FACTOR,)),
}


def _monomial(nvars, exps):
    return ChartPolynomial(nvars, {tuple(exps): GaussianRational(1)})


@st.composite
def factored_values(draw, n, base, unit=False):
    """num / (c * x^m * prod b^e) from the constructor, for a random
    polynomial num (a constant times x^k * prod b^f when `unit`) and a
    nonzero constant c; returns (value, num, den)."""
    nvars = 2 * n
    if unit:
        num = ChartPolynomial.constant(nvars, draw(gaussian_rationals().filter(bool)))
        num = num * _monomial(nvars, [draw(st.integers(0, 2)) for _ in range(nvars)])
        for b in base:
            num = num * b ** draw(st.integers(0, 2))
    else:
        num = draw(polynomials(n)).num
    den = _monomial(nvars, [draw(st.integers(0, 2)) for _ in range(nvars)])
    for b in base:
        den = den * b ** draw(st.integers(0, 3))
    den = den.scale(draw(gaussian_rationals().filter(bool)))
    return ChartExpr(num, den, base), num, den


@st.composite
def factored_cases(draw, unit_b=False):
    n, base = FACTORED_BASES[draw(st.sampled_from(sorted(FACTORED_BASES)))]
    values = factored_values(n, base)
    return (n, base, draw(values), draw(factored_values(n, base, unit_b)), draw(values))


@given(factored_cases())
def test_factored_value_matches_its_pieces(case):
    """The constructor keeps the value, and the expanded denominator has
    leading coefficient 1 and is a product over the base."""
    _, base, (a, num, den), _, _ = case
    assert a.num * den == num * a.den
    assert a.den.leading()[1] == GaussianRational(1)
    rest = a.den
    for b in base:
        while not rest.is_constant() and rest.exact_div(b) is not None:
            rest = rest.exact_div(b)
    assert len(rest.terms) == 1


@given(factored_cases(unit_b=True))
def test_cancelling_an_operand_gives_back_the_same_bytes(case):
    _, _, (a, _, _), (u, _, _), (b, _, _) = case
    for x in ((a * u) / u, (a / u) * u, (a + b) - b, (a - b) + b):
        assert x == a
        assert x.serialize() == a.serialize()


@given(factored_cases(), st.integers(0, 3))
def test_derivative_agrees_with_the_quotient_rule(case, var):
    """d(N/D) = (N' D - N D') / D^2, checked by cross-multiplication on the
    expanded polynomials."""
    n, _, (a, num, den), _, _ = case
    var %= 2 * n
    d = a.differentiate(var)
    want_num = num.derivative(var) * den - num * den.derivative(var)
    assert d.num * (den * den) == want_num * d.den
    # and the result is reduced: re-reducing it changes nothing
    assert ChartExpr(d.num, d.den, d.base).serialize() == d.serialize()


@given(factored_cases(), st.integers(0, 3))
def test_equal_factored_values_serialize_equally(case, var):
    n, base, (a, num, den), (u, _, _), (c, _, _) = case
    var %= 2 * n
    nvars = 2 * n
    # the same value with a common factor put into numerator and denominator
    spread = _monomial(nvars, [1] + [0] * (nvars - 1)) * base[0]
    pairs = [
        (ChartExpr(num * spread, den * spread, base), a),
        (a * (u + c), a * u + a * c),
        ((a * u).differentiate(var), a.differentiate(var) * u + a * u.differentiate(var)),
        (parse(a.serialize(), n, base), a),
        (a.conjugate().conjugate(), a),
    ]
    for x, y in pairs:
        assert x == y
        assert x.serialize() == y.serialize()


def _expr_table_size():
    """Entries of the module-level tables of wickstar.expr, the store among
    them, counting the stored powers of each entry of a stored factor base."""
    from wickstar import expr as expr_module

    size = 0
    for table in vars(expr_module).values():
        if isinstance(table, dict):
            size += len(table)
            size += sum(len(f.powers) for v in table.values() for f in getattr(v, "factors", ()))
    return size


def test_module_tables_stay_bounded_over_star_requests(disk, cp1):
    """A long-lived process keeps no per-value table: 10 more distinct star
    requests (new arguments, same charts and order) add no entry."""
    from wickstar.fedosov import FedosovData, star

    data = [FedosovData("wick", disk, K=6), FedosovData("wick", cp1, K=6)]
    requests = [(f"z1^{i % 3 + 1} + {i}*zb1", f"zb1^{i % 2 + 1} - {i}*i*z1") for i in range(20)]

    def run(batch):
        for k, (f, g) in enumerate(batch):
            d = data[k % 2]
            star(d, parse(f, 1, d.chart.factor_base), parse(g, 1, d.chart.factor_base), 2)

    run(requests[:10])
    after_ten = _expr_table_size()
    run(requests[10:])
    assert _expr_table_size() == after_ten
