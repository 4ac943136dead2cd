"""The integer sums of `expr._Sums` against plain ChartExpr sums.

A sum read from `_Sums` must be the canonical value: the value, the fields
and the bytes of the same sum formed with ChartExpr arithmetic, whatever
mixture of polynomials, denominators and factor bases went in, and however
much of it cancels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_expr import FACTORED_BASES, factored_values, gaussian_rationals, polynomials
from wickstar.expr import GaussianRational, _Sums, parse

MINUS_ONE = GaussianRational(-1)


def _times(c, factor, sign):
    """sign * c * factor in ChartExpr arithmetic, for a factor None (1), a
    GaussianRational or a ChartExpr."""
    value = c if factor is None else c * factor
    return -value if sign < 0 else value


def _plain(key, op):
    """The (key, ChartExpr) contributions of an op at `key`; a gradient adds
    its derivative along x_j at key + j, modulo 3."""
    kind, *args = op
    if kind == "add":
        c, factor, sign = args
        return [(key, _times(c, factor, sign))]
    if kind == "add_gradient":
        (c,) = args
        return [((key + j) % 3, c.differentiate(j)) for j in range(c.nvars)]
    c1, c2, factor, sign = args
    return [(key, _times(c1 * c2, factor, sign))]


def _check(ops, divisors):
    """Each key's sum of `ops`, a list of (key, op), read from `_Sums`
    divided by divisors[key], equals the plain sum divided by it."""
    sums, plain = _Sums(), {}
    for key, op in ops:
        kind, *args = op
        if kind == "add_gradient":
            sums.add_gradient(*args, lambda j, key=key: (key + j) % 3)
        else:
            getattr(sums, kind)(key, *args)
        for k, value in _plain(key, op):
            plain[k] = plain[k] + value if k in plain else value
    got = dict(sums.items(divisors.__getitem__))
    want = {key: value.scale(GaussianRational.ratio(1, divisors[key]))
            for key, value in plain.items() if not value.is_zero()}
    assert got.keys() == want.keys()
    for key, value in got.items():
        assert value.serialize() == want[key].serialize()
        assert value == want[key]
        assert len(value._exps) == len(value.base)
        assert (value._mono, value.num) == (want[key]._mono, want[key].num)


def _negated(key, op):
    """Ops that cancel op at key."""
    kind, *args = op
    if kind == "add_gradient":
        return [(k, ("add", value, MINUS_ONE, 1)) for k, value in _plain(key, op)]
    return [(key, (kind, *args[:-1], -args[-1]))]


@st.composite
def sum_cases(draw):
    """Ops on three keys over one base of FACTORED_BASES, mixed with
    polynomials over the empty base, each times a factor in one of its
    three forms and a sign; some ops are followed by their negation, so
    that sums cancel, some of them to zero."""
    n, base = FACTORED_BASES[draw(st.sampled_from(sorted(FACTORED_BASES)))]
    values = st.one_of(polynomials(n), factored_values(n, base).map(lambda case: case[0]))
    # the three forms of a contraction factor
    factors = st.one_of(st.none(), gaussian_rationals(), values)
    signs = st.sampled_from((1, -1))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        key = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(("add", "add_gradient", "add_product")))
        if kind == "add":
            op = ("add", draw(values), draw(factors), draw(signs))
        elif kind == "add_gradient":
            op = ("add_gradient", draw(values))
        else:
            op = ("add_product", draw(values), draw(values), draw(factors), draw(signs))
        ops.append((key, op))
        if draw(st.booleans()):
            ops.extend(_negated(key, op))
    divisors = {key: draw(st.integers(1, 6)) for key in range(3)}
    return ops, divisors


@settings(max_examples=100, deadline=None)
@given(sum_cases())
def test_read_sums_equal_plain_sums(case):
    _check(*case)


DISK_BASE = (parse("1 - z1*zb1", 1).num,)


@pytest.mark.parametrize("ops", [
    # a base factor of the numerator sum cancels: -1
    [("add", "z1*zb1/(1 - z1*zb1)", None), ("add", "1/(1 - z1*zb1)", MINUS_ONE)],
    # a coordinate of the numerator sum cancels: 1
    [("add", "(z1 + zb1)/z1", None), ("add", "zb1/z1", MINUS_ONE)],
    # a product whose factors cancel across: z1/zb1
    [("add_product", "z1/(1 - z1*zb1)", "(1 - z1*zb1)/zb1", None)],
    # a derivative and a value over its denominator: zb1/(1 - z1*zb1)
    [("add_gradient", "1/(1 - z1*zb1)"), ("add", "z1*zb1^2/(1 - z1*zb1)^2", MINUS_ONE)],
    # a derivative cancelled by a value, next to a polynomial: z1
    [("add_gradient", "1/(1 - z1*zb1)"), ("add", "zb1/(1 - z1*zb1)^2", MINUS_ONE),
     ("add", "z1", None)],
])
def test_a_read_cancels_what_the_groups_share(ops):
    parsed = []
    for kind, *args in ops:
        args = [parse(a, 1, DISK_BASE) if isinstance(a, str) else a for a in args]
        if kind != "add_gradient":
            args.append(1)
        parsed.append((0, (kind, *args)))
    _check(parsed, dict.fromkeys(range(3), 1))
