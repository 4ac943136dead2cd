"""Exact scalar arithmetic for rational functions on a coordinate chart.

Everything downstream (metrics, connection coefficients, star product
coefficients) is a rational function in the chart coordinates
z1..zn, zb1..zbn with Gaussian-rational coefficients.  All arithmetic is
exact; no floating point appears anywhere.

Internally a variable is an index 0..2n-1: indices 0..n-1 are the
holomorphic coordinates z1..zn, indices n..2n-1 the antiholomorphic
coordinates zb1..zbn.

There is deliberately no general multivariate gcd.  A denominator is held
factored over the coordinates and a declared factor base (supplied per
chart), so simplification is exponent arithmetic plus trial division of the
numerator by those factors.  A value whose reduced denominator has any other
factor is refused with an ExprError: the factor belongs in the chart's
`factor_base`.  That keeps the expressions of the Fedosov recursion small on
the bundled charts and makes their form canonical.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class ExprError(Exception):
    """Base error for the expression layer."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDivisionError(ExprError):
    """Division by a syntactically zero expression."""


def var_name(index, n):
    """Printable name of coordinate `index` on an n-dimensional chart."""
    if index < n:
        return f"z{index + 1}"
    return f"zb{index - n + 1}"


class GaussianRational:
    """A complex number (a + b*i)/d with integers a, b, d, kept normalized:
    d > 0 and gcd(a, b, d) = 1, so equal values have equal fields.  The
    constructor takes int or Fraction parts; `re` and `im` give them back as
    Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        # a real value hashes like the equal int or Fraction
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a + other.a, self.b + other.b, d1)
        return _make(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a - other.a, self.b - other.b, d1)
        return _make(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b2:
            return _make(a1 * a2, b1 * a2, self.d * other.d)
        if not b1:
            return _make(a1 * a2, a1 * b2, self.d * other.d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b2:
            if not a2:
                raise ExprDivisionError("division by zero")
            return _make(a1 * other.d, b1 * other.d, self.d * a2)
        # multiply above and below by the conjugate a2 - b2*i
        return _make((a1 * a2 + b1 * b2) * other.d, (b1 * a2 - a1 * b2) * other.d,
                     self.d * (a2 * a2 + b2 * b2))

    def inverse(self):
        return GR_ONE / self

    def conjugate(self):
        return _make(self.a, -self.b, self.d)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        result = GR_ONE
        for _ in range(k):
            result = result * self
        return result

    def render(self):
        """Return (text, atomic) where atomic says the text needs no parens
        when multiplied against a monomial."""
        re, im = self.re, self.im
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

    def __str__(self):
        return self.render()[0]

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _make(a, b, d):
    """The normalized GaussianRational (a + b*i)/d for integers a, b and d != 0."""
    if d != 1:
        g = math.gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = object.__new__(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF_I = GaussianRational(0, Fraction(1, 2))


class ChartPolynomial:
    """Sparse polynomial in the 2n chart coordinates over Gaussian rationals.

    `terms` maps an exponent tuple of length 2n to a nonzero coefficient.
    The zero polynomial has an empty term map.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero(nvars):
        return ChartPolynomial(nvars)

    @staticmethod
    def constant(nvars, value):
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return ChartPolynomial(nvars)
        return ChartPolynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def one(nvars):
        return ChartPolynomial.constant(nvars, 1)

    @staticmethod
    def variable(nvars, index):
        if not 0 <= index < nvars:
            raise ExprError(f"variable index {index} out of range for {nvars} coordinates")
        exp = [0] * nvars
        exp[index] = 1
        return ChartPolynomial(nvars, {tuple(exp): GR_ONE})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        if not self.terms:
            return True
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def constant_value(self):
        if not self.terms:
            return GR_ZERO
        return self.terms.get((0,) * self.nvars, GR_ZERO)

    def __eq__(self, other):
        if not isinstance(other, ChartPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            cur = out.get(exp)
            if cur is None:
                out[exp] = coeff
            else:
                s = cur + coeff
                if s.is_zero():
                    del out[exp]
                else:
                    out[exp] = s
        return ChartPolynomial(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            cur = out.get(exp)
            if cur is None:
                out[exp] = -coeff
            else:
                s = cur - coeff
                if s.is_zero():
                    del out[exp]
                else:
                    out[exp] = s
        return ChartPolynomial(self.nvars, out)

    def __neg__(self):
        return ChartPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return ChartPolynomial(self.nvars)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(exp)
                if cur is None:
                    out[exp] = prod
                else:
                    s = cur + prod
                    if s.is_zero():
                        del out[exp]
                    else:
                        out[exp] = s
        return ChartPolynomial(self.nvars, out)

    def scale(self, value):
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return ChartPolynomial(self.nvars)
        return ChartPolynomial(self.nvars, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, k):
        # repeated multiplication: squaring a dense power costs more term
        # pairs than all k products by the short base (3x slower on (z1+zb1+1)^64)
        result = ChartPolynomial.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, index):
        out = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new = list(exp)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return ChartPolynomial(self.nvars, out)

    def conjugate(self):
        n = self.nvars // 2
        out = {}
        for exp, coeff in self.terms.items():
            swapped = exp[n:] + exp[:n]
            out[swapped] = coeff.conjugate()
        return ChartPolynomial(self.nvars, out)

    def leading(self):
        """(exponent, coefficient) of the lexicographically greatest term."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    def exact_div(self, divisor):
        """Quotient self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ExprDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ChartPolynomial(self.nvars)
        lead_exp, lead_coeff = divisor.leading()
        rem = dict(self.terms)
        out = {}
        while rem:
            rexp = max(rem)
            rcoeff = rem[rexp]
            qexp = tuple(a - b for a, b in zip(rexp, lead_exp))
            if any(e < 0 for e in qexp):
                return None
            qcoeff = rcoeff / lead_coeff
            out[qexp] = qcoeff
            for dexp, dcoeff in divisor.terms.items():
                exp = tuple(a + b for a, b in zip(qexp, dexp))
                cur = rem.get(exp, GR_ZERO)
                s = cur - qcoeff * dcoeff
                if s.is_zero():
                    rem.pop(exp, None)
                else:
                    rem[exp] = s
        return ChartPolynomial(self.nvars, out)

    def render(self):
        if not self.terms:
            return "0"
        n = self.nvars // 2
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            mono = "*".join(
                var_name(i, n) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e > 0
            )
            text, atomic = coeff.render()
            if not mono:
                piece = text if atomic or text.startswith("-") else f"({text})"
            elif coeff == GR_ONE:
                piece = mono
            elif coeff == -GR_ONE:
                piece = f"-{mono}"
            elif atomic:
                piece = f"{text}*{mono}"
            elif text.startswith("-") and "+" not in text and " - " not in text:
                piece = f"{text}*{mono}"
            else:
                piece = f"({text})*{mono}"
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<ChartPolynomial {self.render()}>"


_FACTORS = {}
_BASES = {}
_ZERO_CACHE = {}
_ONE_CACHE = {}


def _chain_divider(factor):
    """Linear-time divider by a pure binomial c1 X^s + c2 (no common
    monomial factor); None for any other factor.

    The exponents of poly fall into chains m, m + s, m + 2s, ..., and along
    a chain the quotient obeys q_k = p_k / c2 + t q_(k-1) with t = -c1/c2.
    The division is exact when the step past the top of every chain gives
    zero.
    """
    if len(factor.terms) != 2:
        return None
    (shift, c1), (e2, c2) = sorted(factor.terms.items(), reverse=True)
    if any(e2) or not any(shift):
        return None
    inv_c2 = c2.inverse()
    t = -(c1 * inv_c2)
    if t == GR_ONE:
        step = operator.add
    elif t == -GR_ONE:
        step = operator.sub
    else:
        def step(p, q):
            return p + t * q

    def divide(poly):
        if inv_c2 != GR_ONE:
            poly = poly.scale(inv_c2)
        chains = {}
        for exp, coeff in poly.terms.items():
            k = min(e // s for e, s in zip(exp, shift) if s)
            if k:
                exp = tuple(e - k * si for e, si in zip(exp, shift))
            chains.setdefault(exp, {})[k] = coeff
        out = {}
        for start, chain in chains.items():
            q = GR_ZERO
            for k in range(max(chain) + 1):
                p = chain.get(k)
                if q:
                    q = step(GR_ZERO if p is None else p, q)
                elif p is None:
                    continue
                else:
                    q = p
                if q:
                    out[tuple(e + k * si for e, si in zip(start, shift))] = q
            if q:
                return None
        return ChartPolynomial(poly.nvars, out)

    return divide


def _monomial_content(poly):
    """The exponent of the largest monomial dividing every term of poly."""
    common = None
    for exp in poly.terms:
        common = exp if common is None else tuple(map(min, common, exp))
        if not any(common):
            break
    return common


def _shifted(poly, delta):
    """poly times the monomial x^delta; delta may lower exponents it divides."""
    return ChartPolynomial(
        poly.nvars, {tuple(map(operator.add, exp, delta)): c for exp, c in poly.terms.items()}
    )


def _monic(poly):
    """(poly / lc, lc) for the lexicographically leading coefficient lc."""
    _, lead = poly.leading()
    return (poly, lead) if lead == GR_ONE else (poly.scale(lead.inverse()), lead)


class _Factor:
    """One factor-base entry b, held monic, with its exact divider, the
    powers of it computed so far and its partial derivatives."""

    __slots__ = ("monic", "divide", "powers", "derivatives")

    def __init__(self, poly):
        if poly.is_constant():
            raise ExprError("factor base entries must be non-constant")
        if any(_monomial_content(poly)):
            raise ExprError(f"factor base entry {poly.render()!r} has a monomial factor")
        monic, _ = _monic(poly)
        self.monic = monic
        self.divide = _chain_divider(monic) or (lambda p: p.exact_div(monic))
        self.powers = [ChartPolynomial.one(poly.nvars), monic]
        self.derivatives = tuple(monic.derivative(j) for j in range(poly.nvars))

    def power(self, k):
        powers = self.powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.monic)
        return powers[k]


def _factor(poly):
    hit = _FACTORS.get(poly)
    if hit is None:
        hit = _FACTORS[poly] = _Factor(poly)
    return hit


class _FactorBase(tuple):
    """A factor base: the tuple of its polynomials, with their `_Factor`s.

    Interned by value, so the values of one chart share one object and most
    base comparisons are identity tests.  Entries are checked to have no
    monomial factor, and no entry may repeat or divide another; irreducible,
    pairwise coprime entries are the chart author's promise.
    """

    def __new__(cls, polys):
        self = super().__new__(cls, polys)
        self.factors = tuple(_factor(b) for b in self)
        self.zeros = (0,) * len(self)
        for i, fi in enumerate(self.factors):
            for j, fj in enumerate(self.factors):
                if i == j:
                    continue
                text = self[i].render()
                if fi.monic == fj.monic:
                    raise ExprError(f"factor base entry {text!r} repeats another entry")
                if fi.divide(fj.monic) is not None:
                    raise ExprError(f"factor base entry {text!r} divides another entry")
        return self


def factor_base(polys):
    """The validated factor base of the polynomials `polys`, interned.

    Raises ExprError for a constant entry, an entry with a monomial factor,
    or an entry that repeats (up to a constant) or divides another.
    """
    if type(polys) is _FactorBase:
        return polys
    polys = tuple(polys)
    hit = _BASES.get(polys)
    if hit is None:
        hit = _BASES[polys] = _FactorBase(polys)
    return hit


def _new(num, mono, exps, base):
    out = object.__new__(ChartExpr)
    out.num = num
    out._mono = mono
    out._exps = exps
    out.base = base
    return out


def _zero(nvars, base):
    return _new(ChartPolynomial(nvars), (0,) * nvars, base.zeros, base)


def _added(t1, t2):
    if not any(t1):
        return t2
    return t1 if not any(t2) else tuple(map(operator.add, t1, t2))


def _cancel(num, mono, exps, factors, most_mono, most_exps):
    """Divide num by the coordinates and base factors it shares with the
    denominator x^mono * prod b_i^exps_i, by x_j at most most_mono[j] times
    and by b_i at most most_exps[i] times; returns num and the lowered
    exponents.  Only the numerator is ever divided."""
    if any(most_mono):
        common = tuple(map(min, most_mono, _monomial_content(num)))
        if any(common):
            num = _shifted(num, tuple(-c for c in common))
            mono = tuple(map(operator.sub, mono, common))
    if any(most_exps):
        exps = list(exps)
        for i, most in enumerate(most_exps):
            if most:
                divide = factors[i].divide
                for _ in range(most):
                    q = divide(num)
                    if q is None:
                        break
                    num = q
                    exps[i] -= 1
        exps = tuple(exps)
    return num, mono, exps


class ChartExpr:
    """Rational function num/den in the chart coordinates.

    The denominator is held factored, as x^m * prod_i b_i^(e_i): m is the
    exponent tuple of a coordinate monomial and e is aligned with the
    factor base `base` (each b_i taken monic).  The numerator shares no
    coordinate and no base factor with the denominator.  `den` expands the
    product on each read, with leading coefficient 1.

    This form is unique, so equality is structural and equal values
    serialize to equal bytes.  A value whose reduced denominator does not
    factor over the base and the coordinates cannot be built: the
    constructor raises ExprError.  Zero is stored as 0/1.
    """

    __slots__ = ("num", "_mono", "_exps", "base")

    def __init__(self, num, den=None, base=()):
        base = factor_base(base)
        mono, exps = (0,) * num.nvars, base.zeros
        if den is not None and den.is_zero():
            raise ExprDivisionError("zero denominator")
        if den is not None and not num.is_zero():
            # split den into a monomial and powers of the base factors; what
            # is left must divide num, then num is divided by what it shares
            # with the factored part
            mono = _monomial_content(den)
            if any(mono):
                den = _shifted(den, tuple(-m for m in mono))
            exps = []
            for fac in base.factors:
                e = 0
                while not den.is_constant():
                    q = fac.divide(den)
                    if q is None:
                        break
                    den = q
                    e += 1
                exps.append(e)
            exps = tuple(exps)
            if den.is_constant():
                lead = den.constant_value()
                if lead != GR_ONE:
                    num = num.scale(lead.inverse())
            else:
                q = num.exact_div(den)
                if q is None:
                    raise ExprError(
                        f"denominator part {_monic(den)[0].render()!r} does not factor over the "
                        "factor base; declare its factors in the chart's factor_base"
                    )
                num = q
            num, mono, exps = _cancel(num, mono, exps, base.factors, mono, exps)
        self.num, self._mono, self._exps, self.base = num, mono, exps, base

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n):
        hit = _ZERO_CACHE.get(n)
        if hit is None:
            hit = ChartExpr(ChartPolynomial.zero(2 * n))
            _ZERO_CACHE[n] = hit
        return hit

    @staticmethod
    def one(n):
        hit = _ONE_CACHE.get(n)
        if hit is None:
            hit = ChartExpr(ChartPolynomial.one(2 * n))
            _ONE_CACHE[n] = hit
        return hit

    @staticmethod
    def constant(n, value):
        return ChartExpr(ChartPolynomial.constant(2 * n, value))

    @staticmethod
    def variable(n, index):
        return ChartExpr(ChartPolynomial.variable(2 * n, index))

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self):
        return self.num.nvars

    @property
    def n(self):
        return self.num.nvars // 2

    @property
    def den(self):
        """The expanded denominator, leading coefficient 1."""
        out = None
        for fac, e in zip(self.base.factors, self._exps):
            if e:
                out = fac.power(e) if out is None else out * fac.power(e)
        if out is None:
            out = ChartPolynomial(self.num.nvars, {self._mono: GR_ONE})
        elif any(self._mono):
            out = _shifted(out, self._mono)
        return out

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not any(self._mono) and not any(self._exps)

    def is_constant(self):
        return self.num.is_constant() and self.is_polynomial()

    def constant_value(self):
        if not self.is_constant():
            raise ExprError("expression is not constant")
        return self.num.constant_value()

    def with_base(self, base):
        return self._over(factor_base(base))

    def _over(self, base):
        """This value reduced over the interned base `base`."""
        if self.base is base:
            return self
        if all(b in base for b, e in zip(self.base, self._exps) if e):
            exps = list(base.zeros)
            for b, e in zip(self.base, self._exps):
                if e:
                    exps[base.index(b)] = e
            return _new(self.num, self._mono, tuple(exps), base)
        return ChartExpr(self.num, self.den, base)

    def _join_base(self, other):
        b1, b2 = self.base, other.base
        if b1 is b2 or not b2:
            return b1
        if not b1:
            return b2
        return factor_base(b1 + tuple(b for b in b2 if b not in b1))

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, subtract):
        base = self._join_base(other)
        a, b = self._over(base), other._over(base)
        if b.num.is_zero():
            return a
        if a.num.is_zero():
            return -b if subtract else b
        if a._mono == b._mono and a._exps == b._exps:
            num = a.num - b.num if subtract else a.num + b.num
            mono, exps = a._mono, a._exps
            most_mono, most_exps = mono, exps
        else:
            # over the lcm of the factored parts, each side times its cofactor;
            # where the two exponents differ, one side keeps a factor the other
            # lacks, so only equal exponents can cancel
            mono = tuple(map(max, a._mono, b._mono))
            exps = tuple(map(max, a._exps, b._exps))
            na = a._cofactor(mono, exps)
            nb = b._cofactor(mono, exps)
            num = na - nb if subtract else na + nb
            most_mono = tuple(x if x == y else 0 for x, y in zip(a._mono, b._mono))
            most_exps = tuple(x if x == y else 0 for x, y in zip(a._exps, b._exps))
        if num.is_zero():
            return _zero(num.nvars, base)
        num, mono, exps = _cancel(num, mono, exps, base.factors, most_mono, most_exps)
        return _new(num, mono, exps, base)

    def _cofactor(self, mono, exps):
        """The numerator over the denominator x^mono * prod b_i^exps_i, a
        multiple of this value's own."""
        num = self.num
        if mono != self._mono:
            num = _shifted(num, tuple(map(operator.sub, mono, self._mono)))
        for fac, e, own in zip(self.base.factors, exps, self._exps):
            if e != own:
                num = num * fac.power(e - own)
        return num

    def __add__(self, other):
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        return self._combine(other, subtract=True)

    def __neg__(self):
        return self._rescaled(-self.num)

    def _rescaled(self, new_num):
        """Same denominator, numerator rescaled by a nonzero constant, which
        keeps the value reduced."""
        if new_num.is_zero():
            return _zero(new_num.nvars, self.base)
        return _new(new_num, self._mono, self._exps, self.base)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return self._times(other)

    def _times(self, other):
        base = self._join_base(other)
        a, b = self._over(base), other._over(base)
        if a.num.is_zero() or b.num.is_zero():
            return _zero(a.num.nvars, base)
        # each factor is reduced, so a factor common to the product pairs one
        # side's numerator with the other side's denominator: cancel across,
        # and the product of what is left is reduced
        factors = base.factors
        n1, m2, e2 = _cancel(a.num, b._mono, b._exps, factors, b._mono, b._exps)
        n2, m1, e1 = _cancel(b.num, a._mono, a._exps, factors, a._mono, a._exps)
        return _new(n1 * n2, _added(m1, m2), _added(e1, e2), base)

    def scale(self, value):
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return _zero(self.num.nvars, self.base)
        return self._rescaled(self.num.scale(value))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            value = GaussianRational.coerce(other)
            if value.is_zero():
                raise ExprDivisionError("division by zero")
            return self.scale(value.inverse())
        if other.is_zero():
            raise ExprDivisionError("division by zero expression")
        base = self._join_base(other)
        a = self._over(base)
        # the divisor's numerator goes through the constructor, which splits
        # it over the base or refuses it; a's denominator is factored already
        top = ChartExpr(a.num * other.den, other.num, base)
        return top._times(_new(ChartPolynomial.one(a.nvars), a._mono, a._exps, base))

    def __pow__(self, k):
        if k < 0:
            return ChartExpr.one(self.n) / self ** (-k)
        # repeated multiplication, as in ChartPolynomial.__pow__
        result = ChartExpr.one(self.n).with_base(self.base)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, ChartExpr):
            return NotImplemented
        base = self._join_base(other)
        a, b = self._over(base), other._over(base)
        return a._mono == b._mono and a._exps == b._exps and a.num == b.num

    def __hash__(self):
        raise TypeError("ChartExpr is not hashable; use serialize() for keying")

    # -- calculus ------------------------------------------------------------

    def differentiate(self, index):
        if not 0 <= index < self.nvars:
            raise ExprError(f"coordinate index {index} out of range")
        num, mono, exps, base = self.num, self._mono, self._exps, self.base
        dnum = num.derivative(index)
        factors = base.factors
        # the factors of the denominator D that involve x_index, with their
        # derivatives times their exponents
        involved = tuple(bool(e and fac.derivatives[index].terms) for fac, e in zip(factors, exps))
        parts = [(fac.monic, fac.derivatives[index].scale(GaussianRational(e)))
                 for fac, e, inv in zip(factors, exps, involved) if inv]
        mk = mono[index]
        if mk:
            parts.append((ChartPolynomial.variable(self.nvars, index),
                          ChartPolynomial.constant(self.nvars, mk)))
        if not parts:
            if dnum.is_zero():
                return _zero(self.nvars, base)
            dnum, mono, exps = _cancel(dnum, mono, exps, factors, mono, exps)
            return _new(dnum, mono, exps, base)
        # logarithmic derivative: with P the product of the parts p and
        # D'/D = sum c'/p, d(N/D) = (N' P - N sum c' P/p) / (D P).  N shares no
        # part with D and each p is prime to c' and to the other parts, so no
        # part divides the new numerator; only the factors of D that do not
        # involve x_index may cancel
        prod, logsum = None, None
        for p, dp in parts:
            if prod is None:
                prod, logsum = p, dp
            else:
                logsum = logsum * p + dp * prod
                prod = prod * p
        new = dnum * prod - num * logsum
        if new.is_zero():
            return _zero(self.nvars, base)
        most_mono = tuple(0 if j == index else m for j, m in enumerate(mono))
        most_exps = tuple(0 if inv else e for e, inv in zip(exps, involved))
        new, mono, exps = _cancel(new, mono, exps, factors, most_mono, most_exps)
        # the parts' exponents were left alone; each goes up by one
        mono = tuple(m + (j == index and m > 0) for j, m in enumerate(mono))
        return _new(new, mono, tuple(map(operator.add, exps, involved)), base)

    def conjugate(self):
        return ChartExpr(self.num.conjugate(), self.den.conjugate(), self.base)

    # -- rendering -----------------------------------------------------------

    def serialize(self):
        """Canonical round-trip form `(num) / (den)`."""
        return f"({self.num.render()}) / ({self.den.render()})"

    def pretty(self):
        """Display form; a trivial denominator is elided."""
        if self.is_polynomial():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"<ChartExpr {self.pretty()}>"


# -- parsing ------------------------------------------------------------------

_OPERATORS = set("+-*/^()")
_DIGITS = set("0123456789")
# the largest exponent magnitude the parser accepts; a power is computed by
# repeated multiplication, so an unbounded exponent is a denial of service
MAX_EXPONENT = 64
# the largest total degree (numerator plus denominator) of a power's result;
# nested powers multiply their exponents, so the exponent cap alone is no bound
MAX_POWER_DEGREE = 64
# the most terms a numerator or denominator may reach in a parsed sum,
# product, quotient or power; checked on a bound before the operation, as
# the degree cap does not bound the terms and products chain without limit
MAX_TERMS = 4096


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _degree(poly):
    return max((sum(exp) for exp in poly.terms), default=0)


def _sizes(expr):
    return len(expr.num.terms), len(expr.den.terms)


def _cap_terms(bound, pos):
    if bound > MAX_TERMS:
        raise ParseError(f"result of up to {bound} terms exceeds the cap of {MAX_TERMS}", pos)


def _integer(tok):
    try:
        return int(tok[1])
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long", tok[2])


class _Parser:
    """Recursive-descent parser for the chart expression grammar.  Atoms
    are built over the factor base, so every intermediate value is held
    factored over it."""

    def __init__(self, text, n, base):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.base = factor_base(base)

    def leaf(self, poly):
        return ChartExpr(poly, base=self.base)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        expr = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return expr

    def sum(self):
        left = self.product()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            right = self.product()
            (an, ad), (bn, bd) = _sizes(left), _sizes(right)
            same_den = left.den == right.den
            _cap_terms(an + bn if same_den else max(an * bd + bn * ad, ad * bd), pos)
            left = left + right if op == "+" else left - right
        return left

    def product(self):
        left = self.power()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            right = self.power()
            (an, ad), (bn, bd) = _sizes(left), _sizes(right)
            if op == "*":
                _cap_terms(max(an * bn, ad * bd), pos)
                left = left * right
            else:
                if right.is_zero():
                    raise ParseError("division by zero expression", pos)
                _cap_terms(max(an * bd, ad * bn), pos)
                left = left / right
        return left

    def power(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return -self.power()
        base, atomic = self.atom()
        tok = self.peek()
        if tok[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            exp_tok = self.expect("num")
            exponent = sign * _integer(exp_tok)
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds the cap of {MAX_EXPONENT}", exp_tok[2]
                )
            if exponent < 0 and not atomic:
                raise ParseError(
                    "negative exponent is only allowed on atoms", exp_tok[2]
                )
            if exponent < 0 and base.is_zero():
                raise ParseError("zero to a negative power", exp_tok[2])
            degree = abs(exponent) * (_degree(base.num) + _degree(base.den))
            if degree > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power of degree {degree} exceeds the cap of {MAX_POWER_DEGREE}", exp_tok[2]
                )
            # a power of t terms has at most comb(t + k - 1, k) terms
            k = abs(exponent)
            _cap_terms(max(math.comb(t + k - 1, k) for t in _sizes(base) if t), exp_tok[2])
            return base ** exponent
        return base

    def atom(self):
        """Returns (expr, is_atomic); atoms admit negative exponents."""
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return self.leaf(ChartPolynomial.constant(2 * self.n, _integer(tok))), True
        if kind == "name":
            if text == "i":
                return self.leaf(ChartPolynomial.constant(2 * self.n, GR_I)), True
            if text.startswith("zb"):
                idx_text, offset = text[2:], self.n
            elif text.startswith("z"):
                idx_text, offset = text[1:], 0
            else:
                raise ParseError(f"unknown name {text!r}", pos)
            if not idx_text.isdigit():
                raise ParseError(f"malformed variable {text!r}", pos)
            index = int(idx_text)
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable {text!r} out of range for dimension {self.n}", pos
                )
            return self.leaf(ChartPolynomial.variable(2 * self.n, offset + index - 1)), True
        if kind == "(":
            inner = self.sum()
            self.expect(")")
            return inner, False
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text, n, base=()):
    """Parse `text` into a canonical ChartExpr on an n-dimensional chart,
    held over the factor base `base`.  Raises ExprError when a denominator
    does not factor over the base and the coordinates."""
    return _Parser(text, n, base).parse()
