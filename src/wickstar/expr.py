"""Exact scalar arithmetic for rational functions on a coordinate chart.

Everything downstream (metrics, connection coefficients, star product
coefficients) is a rational function in the chart coordinates
z1..zn, zb1..zbn with Gaussian-rational coefficients.  All arithmetic is
exact; no floating point appears anywhere.

Internally a variable is an index 0..2n-1: indices 0..n-1 are the
holomorphic coordinates z1..zn, indices n..2n-1 the antiholomorphic
coordinates zb1..zbn.

There is deliberately no general multivariate gcd.  Equality of rational
functions is decided by cross-multiplication, and simplification only
divides out declared factor-base polynomials (supplied per chart) and
common monomial factors.  That is enough to keep the expressions of the
Fedosov recursion small on the bundled charts.
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


_FACTOR_CACHE = {}
_DIVIDER_CACHE = {}
_ZERO_CACHE = {}
_ONE_CACHE = {}


def _divider(factor):
    """A function taking poly to poly / factor, or to None when the division
    is not exact.  Memoized per factor; base polynomials are few."""
    hit = _DIVIDER_CACHE.get(factor)
    if hit is None:
        hit = _chain_divider(factor) or (lambda poly: poly.exact_div(factor))
        _DIVIDER_CACHE[factor] = hit
    return hit


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


def _single_base_power(den, base):
    """(b, m) when the non-constant den is exactly b**m for one base factor,
    None otherwise.  Memoized; denominators are small."""
    key = (den, base)
    hit = _FACTOR_CACHE.get(key, "miss")
    if hit != "miss":
        return hit
    result = None
    for b in base:
        m = 0
        work = den
        divide = _divider(b)
        while True:
            q = divide(work)
            if q is None:
                break
            work = q
            m += 1
        if m and work.is_constant() and work.constant_value() == GR_ONE:
            result = (b, m)
            break
    _FACTOR_CACHE[key] = result
    return result


def _cancel_monomial(num, den):
    """Divide out the largest monomial common to every term of num and den."""
    nvars = num.nvars
    common = None
    for poly in (num, den):
        for exp in poly.terms:
            if common is None:
                common = list(exp)
            else:
                common = [min(a, b) for a, b in zip(common, exp)]
            if not any(common):
                return num, den
    if common is None or not any(common):
        return num, den
    shift = tuple(common)

    def shifted(poly):
        return ChartPolynomial(
            nvars,
            {tuple(a - b for a, b in zip(exp, shift)): c for exp, c in poly.terms.items()},
        )

    return shifted(num), shifted(den)


def _cancel_common(num, den, base):
    """Divide num and den by their largest common monomial and by every
    base factor they share, as often as both stay divisible.

    This is the one reduction kernel.  With base entries irreducible and
    pairwise coprime, a denominator that factors over the base and the
    coordinates comes out coprime to the numerator.
    """
    if num.is_constant() or den.is_constant():
        return num, den
    num, den = _cancel_monomial(num, den)
    for factor in base:
        divide = _divider(factor)
        while not den.is_constant():
            qn = divide(num)
            if qn is None:
                break
            qd = divide(den)
            if qd is None:
                break
            num, den = qn, qd
    return num, den


class ChartExpr:
    """Rational function num/den in the chart coordinates.

    Canonical form: the denominator is nonzero, its lexicographically
    leading coefficient is 1, and numerator and denominator share no
    monomial and no factor of the attached factor base.  Zero is stored as
    0/1.  For a denominator that factors over the base and the coordinates
    this form is unique, so equal values serialize to equal bytes.
    Equality is decided by cross-multiplication, so it holds for other
    denominators too.
    """

    __slots__ = ("num", "den", "base")

    def __init__(self, num, den=None, base=()):
        if den is None:
            den = ChartPolynomial.one(num.nvars)
        if den.is_zero():
            raise ExprDivisionError("zero denominator")
        self._store(*_cancel_common(num, den, base), base)

    @staticmethod
    def _from_reduced(num, den, base):
        """num/den where num and den share no monomial and no base factor."""
        out = object.__new__(ChartExpr)
        out._store(num, den, base)
        return out

    def _store(self, num, den, base):
        if num.is_zero():
            den = ChartPolynomial.one(num.nvars)
        else:
            _, lead = den.leading()
            if lead != GR_ONE:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den
        self.base = base

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

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise ExprError("expression is not constant")
        if self.num.is_zero():
            return GR_ZERO
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self):
        return self.den.is_constant()

    def with_base(self, base):
        return ChartExpr(self.num, self.den, base)

    def _join_base(self, other):
        if self.base == other.base:
            return self.base
        extra = tuple(b for b in other.base if b not in self.base)
        return self.base + extra

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, subtract):
        base = self._join_base(other)
        if self.den == other.den:
            num = self.num - other.num if subtract else self.num + other.num
            return ChartExpr(num, self.den, base)
        num = (
            self.num * other.den - other.num * self.den
            if subtract
            else self.num * other.den + other.num * self.den
        )
        return ChartExpr(num, self.den * other.den, base)

    def __add__(self, other):
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        return self._combine(other, subtract=True)

    def __neg__(self):
        return self._rescaled(-self.num)

    def _rescaled(self, new_num):
        """Same denominator, numerator rescaled by a nonzero constant.

        Precondition: self is reduced.  Scaling by a constant keeps it so,
        so construction-time reduction is skipped."""
        out = object.__new__(ChartExpr)
        if new_num.is_zero():
            out.num = new_num
            out.den = ChartPolynomial.one(new_num.nvars)
        else:
            out.num = new_num
            out.den = self.den
        out.base = self.base
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return self._times(other.num, other.den, other)

    def _times(self, num, den, other):
        """self * (num/den), where num/den is other or its reciprocal."""
        base = self._join_base(other)
        if not (self._reduced_over(base) and other._reduced_over(base)):
            return ChartExpr(self.num * num, self.den * den, base)
        # each factor is reduced over base, so a factor common to the product
        # pairs one side's numerator with the other side's denominator:
        # cancel across, and the product of what is left is reduced
        num1, den2 = _cancel_common(self.num, den, base)
        num2, den1 = _cancel_common(num, self.den, base)
        return ChartExpr._from_reduced(num1 * num2, den1 * den2, base)

    def _reduced_over(self, base):
        return self.base == base or self.den.is_constant()

    def scale(self, value):
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return ChartExpr.zero(self.n).with_base(self.base) if self.base else ChartExpr.zero(self.n)
        return self._rescaled(self.num.scale(value))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            value = GaussianRational.coerce(other)
            if value.is_zero():
                raise ExprDivisionError("division by zero")
            return self.scale(value.inverse())
        if other.is_zero():
            raise ExprDivisionError("division by zero expression")
        return self._times(other.den, other.num, other)

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
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("ChartExpr is not hashable; use serialize() for keying")

    # -- calculus ------------------------------------------------------------

    def differentiate(self, index):
        if not 0 <= index < self.nvars:
            raise ExprError(f"coordinate index {index} out of range")
        dnum = self.num.derivative(index)
        dden = self.den.derivative(index)
        if dden.is_zero():
            return ChartExpr(dnum, self.den, self.base)
        # for den = b^m the quotient rule's common power cancels analytically:
        # d(n / b^m) = (n' b - m n b') / b^(m+1).  Precondition: self is
        # reduced, so b does not divide n, and b is irreducible, so b does not
        # divide the new numerator either; no reduction pass is needed
        fac = _single_base_power(self.den, self.base)
        if fac is not None:
            b, m = fac
            db = b.derivative(index)
            num = dnum * b - self.num.scale(GaussianRational(m)) * db
            return ChartExpr._from_reduced(num, self.den * b, self.base)
        return ChartExpr(
            dnum * self.den - self.num * dden,
            self.den * self.den,
            self.base,
        )

    def conjugate(self):
        return ChartExpr(self.num.conjugate(), self.den.conjugate(), self.base)

    # -- rendering -----------------------------------------------------------

    def serialize(self):
        """Canonical round-trip form `(num) / (den)`."""
        return f"({self.num.render()}) / ({self.den.render()})"

    def pretty(self):
        """Display form; a trivial denominator is elided."""
        if self.den.is_constant() and self.den.constant_value() == GR_ONE:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"<ChartExpr {self.pretty()}>"


def reduce(expr, factor_base):
    """Trial-divide numerator and denominator by the factor base.

    Value-preserving: only factors common to both are removed.  Entries of
    the base must be non-constant polynomials.
    """
    for factor in factor_base:
        if factor.is_constant():
            raise ExprError("factor base entries must be non-constant")
    return ChartExpr(expr.num, expr.den, tuple(factor_base))


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
    """Recursive-descent parser for the chart expression grammar."""

    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n

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
            return ChartExpr.constant(self.n, _integer(tok)), True
        if kind == "name":
            if text == "i":
                return ChartExpr.constant(self.n, GR_I), True
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
            return ChartExpr.variable(self.n, offset + index - 1), True
        if kind == "(":
            inner = self.sum()
            self.expect(")")
            return inner, False
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text, n, base=()):
    """Parse `text` into a canonical ChartExpr on an n-dimensional chart."""
    expr = _Parser(text, n).parse()
    if base:
        expr = expr.with_base(tuple(base))
    return expr
