"""The expression parser against ChartExpr arithmetic, and its errors.

The oracle renders random expression trees to text and requires `parse`
to give the value the tree evaluates to through ChartExpr arithmetic,
compared by `serialize()`.  The trees hold constants with `i`, variables,
sums and differences, products, quotients by constants, by coordinates
and by factor-base entries, unary minus, powers, and negative powers of
atoms, written both in parentheses and as bare chains of terms.

The golden pins the error of about forty hostile texts: its type, its
message and its position.  It covers every cap (exponent, power degree,
terms at a power, a product, a sum and a quotient, nesting, literal
length), exponent overflow by a chain of products, one text of each
fuzz shape, and malformed input.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from wickstar.expr import ChartExpr, ExprError, GaussianRational, ParseError, parse

DISK_BASE = "(1 - z1*zb1)"
# (n, factor base) of the charts the oracle parses on: the disk's, and a
# flat chart in two dimensions
CHARTS = ((1, (DISK_BASE,)), (2, ()))

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _base(n, texts):
    return tuple(parse(t, n).num for t in texts)


def _fraction_text(q):
    return f"({q.numerator}/{q.denominator})"


@st.composite
def atoms(draw, n, base):
    """(text, value, atomic) of an atom: a variable, an integer literal, i,
    a written constant or a factor-base entry, maybe raised to a power."""
    kind = draw(st.sampled_from(("variable", "integer", "i", "constant", "entry")))
    if kind == "variable":
        j = draw(st.integers(0, 2 * n - 1))
        text = f"z{j + 1}" if j < n else f"zb{j - n + 1}"
        value, atomic = ChartExpr.variable(n, j), True
    elif kind == "integer":
        k = draw(st.integers(0, 3))
        text, value, atomic = str(k), ChartExpr.constant(n, k), True
    elif kind == "i":
        text, value, atomic = "i", ChartExpr.constant(n, GaussianRational(0, 1)), True
    elif kind == "constant":
        re, im = draw(fractions), draw(fractions)
        text = f"({_fraction_text(re)} + {_fraction_text(im)}*i)"
        value, atomic = ChartExpr.constant(n, GaussianRational(re, im)), False
    else:
        if not base:
            return draw(atoms(n, base))
        text, value, atomic = DISK_BASE, parse(DISK_BASE, n), False
    value = value.with_base(base)
    exponent = draw(st.none() | st.integers(-2 if atomic and not value.is_zero() else 0, 3))
    if exponent is not None:
        text, value = f"{text}^{exponent}", value ** exponent
    return text, value, atomic and exponent is None


def divisors(n, base):
    """(text, value) of a value the parser may divide by, as its denominator
    factors over the base and the coordinates: a nonzero atom, or a nonzero
    constant written as a sum in which a variable cancels."""
    nonzero = atoms(n, base).filter(lambda a: not a[1].is_zero())
    return nonzero.map(lambda a: a[:2]) | nonzero.filter(lambda a: a[1].is_constant()).map(
        lambda a: (f"(z1 + {a[0]} - z1)", a[1]))


def trees(n, base):
    """(text, value) of an expression tree."""
    def extend(children):
        def chain(draw):
            # a bare sum of products, read with the grammar's precedence
            terms = draw(st.lists(st.lists(children | atoms(n, base).map(lambda a: a[:2]),
                                           min_size=1, max_size=3), min_size=1, max_size=4))
            text, value = "", None
            for factors in terms:
                t_text, t_value = factors[0]
                for f_text, f_value in factors[1:]:
                    if draw(st.booleans()):
                        d_text, d_value = draw(divisors(n, base))
                        t_text, t_value = f"{t_text}/{d_text}", t_value / d_value
                    else:
                        t_text, t_value = f"{t_text}*{f_text}", t_value * f_value
                if value is None:
                    text, value = t_text, t_value
                elif draw(st.booleans()):
                    text, value = f"{text} - {t_text}", value - t_value
                else:
                    text, value = f"{text} + {t_text}", value + t_value
            return f"({text})", value

        def power(draw):
            text, value = draw(children)
            k = draw(st.integers(0, 2))
            return f"({text})^{k}", value ** k

        def minus(draw):
            text, value = draw(children)
            return f"-({text})", -value

        return st.one_of(st.composite(chain)(), st.composite(power)(), st.composite(minus)())

    return st.recursive(atoms(n, base).map(lambda a: a[:2]), extend, max_leaves=6)


@st.composite
def parsed_trees(draw):
    n, texts = draw(st.sampled_from(CHARTS))
    base = _base(n, texts)
    text, value = draw(trees(n, base))
    return n, base, text, value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parsed_trees())
def test_parse_equals_the_tree_evaluated_by_chart_expr_arithmetic(case):
    n, base, text, value = case
    try:
        got = parse(text, n, base)
    except ParseError as exc:
        # a tree whose powers or products pass a cap is not the oracle's case
        assume("exceeds the cap" not in str(exc))
        raise
    assert got.serialize() == value.serialize(), text


def _chain(factor, count):
    return "*".join([factor] * count)


GOLDEN = (
    # the exponent cap
    ("z1^65", 1, (), "ParseError", "exponent 65 exceeds the cap of 64 (at position 3)"),
    ("z1^-65", 1, (), "ParseError", "exponent -65 exceeds the cap of 64 (at position 4)"),
    ("(z1 + 1)^99999", 1, (), "ParseError", "exponent 99999 exceeds the cap of 64 (at position 9)"),
    ("30000000000000000000*z1^-300", 1, (), "ParseError",
     "exponent -300 exceeds the cap of 64 (at position 25)"),
    # the power-degree cap
    ("(z1*zb1)^33", 1, (), "ParseError", "power of degree 66 exceeds the cap of 64 (at position 9)"),
    ("((z1 + zb1)^64)^64", 1, (), "ParseError",
     "power of degree 4096 exceeds the cap of 64 (at position 16)"),
    ("(z1^2)^40", 1, (), "ParseError", "power of degree 80 exceeds the cap of 64 (at position 7)"),
    ("z1^-64*(zb1^2)^33", 1, (), "ParseError",
     "power of degree 66 exceeds the cap of 64 (at position 15)"),
    (f"(1/{DISK_BASE})^40", 1, (DISK_BASE,), "ParseError",
     "power of degree 80 exceeds the cap of 64 (at position 17)"),
    (f"z1/{DISK_BASE}^64", 1, (DISK_BASE,), "ParseError",
     "power of degree 128 exceeds the cap of 64 (at position 16)"),
    # the term cap at a power, a product, a sum and a quotient
    ("(z1 + z2 + zb1 + zb2 + 1)^16", 2, (), "ParseError",
     "result of up to 4845 terms exceeds the cap of 4096 (at position 26)"),
    ("(z1 + z2 + zb1 + zb2 + 1)^8*(z1 + z2 + zb1 + zb2 + 1)^8", 2, (), "ParseError",
     "result of up to 245025 terms exceeds the cap of 4096 (at position 27)"),
    (f"(z1 + z2 + zb1 + zb2 + 1)^8*(z1 + z2 + zb1 + zb2 + 1)^8/{DISK_BASE}", 2, (DISK_BASE,),
     "ParseError", "result of up to 245025 terms exceeds the cap of 4096 (at position 27)"),
    (" + ".join(f"z1^{a}*zb1^{b}" for a in range(65) for b in range(65)), 1, (), "ParseError",
     "result of up to 4097 terms exceeds the cap of 4096 (at position 60157)"),
    (f"(1/{DISK_BASE})^32/(z1 + z2 + zb1 + zb2 + 1)^8", 2, (DISK_BASE,), "ParseError",
     "result of up to 16335 terms exceeds the cap of 4096 (at position 19)"),
    (f"(1/{DISK_BASE})^32 + (z1 + z2 + zb1 + zb2 + 1)^8*z1^-1", 2, (DISK_BASE,), "ParseError",
     "result of up to 16336 terms exceeds the cap of 4096 (at position 20)"),
    # the nesting cap, and a text just inside it
    ("(" * 101 + "z1" + ")" * 101, 1, (), "ParseError",
     "nesting deeper than the cap of 100 levels (at position 100)"),
    ("-" * 101 + "z1", 1, (), "ParseError",
     "nesting deeper than the cap of 100 levels (at position 100)"),
    ("(" * 50 + "-" * 51 + "z1" + ")" * 50, 1, (), "ParseError",
     "nesting deeper than the cap of 100 levels (at position 100)"),
    ("-" * 100 + "i", 1, (), None, "(i) / (1)"),
    # integer literals too long to convert
    ("1" + "0" * 5000, 1, (), "ParseError", "integer literal of 5001 digits is too long (at position 0)"),
    ("z1^1" + "0" * 5000, 1, (), "ParseError",
     "integer literal of 5001 digits is too long (at position 3)"),
    ("1/" + "9" * 6000, 1, (), "ParseError", "integer literal of 6000 digits is too long (at position 2)"),
    # exponent overflow by a chain of products
    (_chain("z1^64", 257), 1, (), "ExprError", "an exponent reached the limit 16384"),
    (_chain("(z1^60*zb1)", 300), 1, (), "ExprError", "an exponent reached the limit 16384"),
    (_chain("(z1 + zb1^64)", 257), 1, (), "ExprError", "an exponent reached the limit 16384"),
    # one text of each fuzz shape
    ("((((z1)))", 1, (), "ParseError", "expected ')', found '' (at position 9)"),
    ("(z1))", 1, (), "ParseError", "unexpected trailing input ')' (at position 4)"),
    (" + ".join(["x"] * 20), 1, (), "ParseError", "unknown name 'x' (at position 0)"),
    ("(((z2 + zb1 + 1)^5)^-3)", 1, (), "ParseError",
     "variable 'z2' out of range for dimension 1 (at position 3)"),
    ("z1/(z1 - z1)", 1, (), "ParseError", "division by zero expression (at position 2)"),
    ("z1/(z1 - 1)", 1, (), "ExprError",
     "denominator part 'z1 - 1' does not factor over the factor base; declare its factors in "
     "the chart's factor_base"),
    ("z1b()+-*/^ 0123456789i.", 1, (), "ParseError", "unexpected character '.' (at position 22)"),
    # malformed input
    ("", 1, (), "ParseError", "unexpected token '' (at position 0)"),
    ("z1 +", 1, (), "ParseError", "unexpected token '' (at position 4)"),
    ("z3", 2, (), "ParseError", "variable 'z3' out of range for dimension 2 (at position 0)"),
    ("z0", 1, (), "ParseError", "variable 'z0' out of range for dimension 1 (at position 0)"),
    ("zq1", 1, (), "ParseError", "malformed variable 'zq1' (at position 0)"),
    ("q", 1, (), "ParseError", "unknown name 'q' (at position 0)"),
    ("z1 $ 2", 1, (), "ParseError", "unexpected character '$' (at position 3)"),
    ("z1 + ²", 1, (), "ParseError", "unexpected character '²' (at position 5)"),
    ("1/0", 1, (), "ParseError", "division by zero expression (at position 1)"),
    ("0^-1", 1, (), "ParseError", "zero to a negative power (at position 3)"),
    ("(z1)^-1", 1, (), "ParseError", "negative exponent is only allowed on atoms (at position 6)"),
    ("z1^z1", 1, (), "ParseError", "expected 'num', found 'z1' (at position 3)"),
    ("z1 z1", 1, (), "ParseError", "unexpected trailing input 'z1' (at position 3)"),
    ("()", 1, (), "ParseError", "unexpected token ')' (at position 1)"),
)


@pytest.mark.parametrize("text, n, base, error, want", GOLDEN, ids=range(len(GOLDEN)))
def test_parse_errors_are_pinned(text, n, base, error, want):
    if error is None:
        assert parse(text, n, _base(n, base)).serialize() == want
        return
    with pytest.raises(ExprError) as exc:
        parse(text, n, _base(n, base))
    assert type(exc.value).__name__ == error
    assert str(exc.value) == want
    if error == "ParseError":
        assert want.endswith(f"(at position {exc.value.position})")
