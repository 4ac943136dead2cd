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

import functools
import math
import operator
import threading
from bisect import insort
from collections import OrderedDict
from collections.abc import Mapping
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
    def ratio(num, den):
        """The rational num/den of two ints, den != 0."""
        return _make(num, 0, den)

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


# -- packed exponents ------------------------------------------------------------

# A monomial of a ChartPolynomial is one int, its exponent tuple packed into
# fields of FIELD_BITS bits with variable 0 in the most significant field, so
# integer order is lexicographic order of the exponent tuples.  The top bit
# of each field is a guard bit: exponents stay below EXPONENT_LIMIT, so adding
# two keys never carries into the next field, a set guard bit after an
# addition flags an exponent at or above the limit, and subtracting from a
# key with its guard bits set clears the guard bit of each field that would
# borrow.
FIELD_BITS = 15
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1


class _Layout:
    """The masks of the packed keys over nvars variables: `shifts[j]` is the
    low bit of variable j's field, `guards` has every guard bit set and
    `ones` the low bit of every field."""

    __slots__ = ("shifts", "guards", "ones")

    def __init__(self, nvars):
        self.shifts = tuple(FIELD_BITS * (nvars - 1 - j) for j in range(nvars))
        self.ones = sum(1 << s for s in self.shifts)
        self.guards = self.ones * EXPONENT_LIMIT


class _Layouts(dict):
    def __missing__(self, nvars):
        lay = self[nvars] = _Layout(nvars)
        return lay


_LAYOUTS = _Layouts()


def _pack(exp, nvars):
    if len(exp) != nvars:
        raise ExprError(f"exponent tuple {exp!r} does not have {nvars} entries")
    key = 0
    for e in exp:
        if type(e) is not int or not 0 <= e < EXPONENT_LIMIT:
            raise ExprError(f"exponent {e!r} is not an integer in 0..{EXPONENT_LIMIT - 1}")
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key, nvars):
    return tuple((key >> s) & _FIELD for s in _LAYOUTS[nvars].shifts)


def _check_keys(bits, nvars):
    """Raise ExprError when the OR of some keys, `bits`, has a guard bit set."""
    if bits & _LAYOUTS[nvars].guards:
        raise ExprError(f"an exponent reached the limit {EXPONENT_LIMIT}")


def _keys_bits(keys):
    return functools.reduce(operator.or_, keys, 0)


def _ge_mask(x, y, lay):
    """The value bits of the fields where x >= y."""
    ge = ((x | lay.guards) - y) & lay.guards
    return ge - (ge >> (FIELD_BITS - 1))


def _field_min(x, y, lay):
    mask = _ge_mask(x, y, lay)
    return (y & mask) | (x & ~mask)


def _field_max(x, y, lay):
    mask = _ge_mask(x, y, lay)
    return (x & mask) | (y & ~mask)


def _field_common(x, y, lay):
    """The fields of x that equal those of y, the others zero."""
    nonzero = ((x ^ y) + lay.guards - lay.ones) & lay.guards
    same = lay.guards ^ nonzero
    return x & (same - (same >> (FIELD_BITS - 1)))


class ChartPolynomial:
    """Sparse polynomial in the 2n chart coordinates over Gaussian rationals.

    Held as (1/d) * sum (a + b*i) x^e: a dict from the packed key of each
    exponent e to the Gaussian-integer pair (a, b), none (0, 0), over one
    denominator d > 0 with gcd(d, every a, every b) = 1, so equal values have
    equal fields.  The zero polynomial has no terms and d = 1.

    The constructor takes {exponent tuple: coefficient} and `terms` gives
    that form back as a read-only view; the arithmetic reads neither.  An
    exponent at or above EXPONENT_LIMIT raises ExprError.
    """

    __slots__ = ("nvars", "_t", "_d")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        coeffs = {}
        for exp, c in (terms or {}).items():
            c = GaussianRational.coerce(c)
            if c:
                coeffs[_pack(exp, nvars)] = c
        # over the lcm of reduced denominators the pairs share no factor with d
        d = math.lcm(*(c.d for c in coeffs.values()))
        self._t = {k: (c.a * (d // c.d), c.b * (d // c.d)) for k, c in coeffs.items()}
        self._d = d

    @staticmethod
    def zero(nvars):
        return _poly(nvars, {}, 1)

    @staticmethod
    def constant(nvars, value):
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return _poly(nvars, {}, 1)
        return _poly(nvars, {0: (value.a, value.b)}, value.d)

    @staticmethod
    def one(nvars):
        return _poly(nvars, {0: (1, 0)}, 1)

    @staticmethod
    def variable(nvars, index):
        if not 0 <= index < nvars:
            raise ExprError(f"variable index {index} out of range for {nvars} coordinates")
        return _poly(nvars, {1 << _LAYOUTS[nvars].shifts[index]: (1, 0)}, 1)

    @property
    def terms(self):
        """{exponent tuple: GaussianRational}, as a view built on reading."""
        return _Terms(self)

    def is_zero(self):
        return not self._t

    def is_constant(self):
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        pair = self._t.get(0)
        return GR_ZERO if pair is None else _make(pair[0], pair[1], self._d)

    def __eq__(self, other):
        if not isinstance(other, ChartPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._d == other._d and self._t == other._t

    def __hash__(self):
        return hash((self.nvars, self._d, frozenset(self._t.items())))

    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __neg__(self):
        return _poly(self.nvars, {k: (-a, -b) for k, (a, b) in self._t.items()}, self._d)

    def __mul__(self, other):
        t1, t2 = self._t, other._t
        if not t1 or not t2:
            return _poly(self.nvars, {}, 1)
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        shifted = True
        if len(t1) == 1:
            # a one-term side shifts and scales the other: no sums arise
            ((k1, (a1, b1)),) = t1.items()
            shifted = k1 != 0
            if b1:
                out = {k1 + k: (a1 * a - b1 * b, a1 * b + b1 * a) for k, (a, b) in t2.items()}
            elif a1 != 1:
                out = {k1 + k: (a1 * a, a1 * b) for k, (a, b) in t2.items()}
            elif k1:
                out = {k1 + k: pair for k, pair in t2.items()}
            else:
                out = t2
        else:
            out = {}
            get = out.get
            for k1, (a1, b1) in t1.items():
                for k2, (a2, b2) in t2.items():
                    k = k1 + k2
                    if b1:
                        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                    else:
                        a, b = a1 * a2, a1 * b2
                    cur = get(k)
                    if cur is not None:
                        a += cur[0]
                        b += cur[1]
                        if not a and not b:
                            del out[k]
                            continue
                    out[k] = (a, b)
        if shifted:
            # a product key has each field below 2 * EXPONENT_LIMIT, so it is
            # exact until read: checking the keys kept is enough
            _check_keys(_keys_bits(out), self.nvars)
        return _reduced(self.nvars, out, self._d * other._d)

    def scale(self, value):
        value = GaussianRational.coerce(value)
        va, vb = value.a, value.b
        if not va and not vb:
            return _poly(self.nvars, {}, 1)
        t = self._t
        if vb:
            out = {k: (a * va - b * vb, a * vb + b * va) for k, (a, b) in t.items()}
        elif va != 1:
            out = {k: (a * va, b * va) for k, (a, b) in t.items()}
        elif value.d == 1:
            return self
        else:
            out = t
        return _reduced(self.nvars, out, self._d * value.d)

    def __pow__(self, k):
        # repeated multiplication: squaring a dense power costs more term
        # pairs than all k products by the short base (3x slower on (z1+zb1+1)^64)
        result = ChartPolynomial.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, index):
        shift = _LAYOUTS[self.nvars].shifts[index]
        unit = 1 << shift
        out = {}
        for k, (a, b) in self._t.items():
            e = (k >> shift) & _FIELD
            if e:
                out[k - unit] = (a * e, b * e)
        return _reduced(self.nvars, out, self._d)

    def conjugate(self):
        half = FIELD_BITS * (self.nvars // 2)
        low = (1 << half) - 1
        return _poly(
            self.nvars,
            {((k & low) << half) | (k >> half): (a, -b) for k, (a, b) in self._t.items()},
            self._d,
        )

    def leading(self):
        """(exponent, coefficient) of the lexicographically greatest term."""
        key = max(self._t)
        a, b = self._t[key]
        return _unpack(key, self.nvars), _make(a, b, self._d)

    def exact_div(self, divisor):
        """Quotient self/divisor if the division is exact, else None."""
        return _divider(divisor)(self)

    def render(self):
        t = self._t
        if not t:
            return "0"
        nvars, d = self.nvars, self._d
        n = nvars // 2
        pieces = []
        for key in sorted(t, reverse=True):
            a, b = t[key]
            coeff = _make(a, b, d)
            mono = "*".join(
                var_name(i, n) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(_unpack(key, nvars))
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


class _Terms(Mapping):
    """The read-only {exponent tuple: GaussianRational} view of a polynomial."""

    __slots__ = ("_p",)

    def __init__(self, poly):
        self._p = poly

    def __len__(self):
        return len(self._p._t)

    def __iter__(self):
        nvars = self._p.nvars
        return (_unpack(k, nvars) for k in self._p._t)

    def __getitem__(self, exp):
        p = self._p
        try:
            a, b = p._t[_pack(exp, p.nvars)]
        except ExprError:
            raise KeyError(exp) from None
        return _make(a, b, p._d)

    def __repr__(self):
        return repr(dict(self.items()))


def _poly(nvars, t, d):
    """The ChartPolynomial with term dict t over d, taken as reduced."""
    out = object.__new__(ChartPolynomial)
    out.nvars = nvars
    out._t = t
    out._d = d
    return out


def _reduced(nvars, t, d):
    """The ChartPolynomial t/d after one content pass: the gcd of d and
    every pair is divided out."""
    if d != 1:
        if not t:
            d = 1
        else:
            g = d
            for a, b in t.values():
                g = math.gcd(g, a, b)
                if g == 1:
                    break
            if g != 1:
                d //= g
                t = {k: (a // g, b // g) for k, (a, b) in t.items()}
    return _poly(nvars, t, d)


def _sum(p, q, sign):
    """p + sign * q for sign = +-1."""
    t1, t2 = p._t, q._t
    if not t2:
        return p
    if not t1:
        return q if sign > 0 else -q
    d1, d2 = p._d, q._d
    if d1 == d2:
        f1, f2, d = 1, sign, d1
    else:
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        d = d1 * f1
    out = dict(t1) if f1 == 1 else {k: (a * f1, b * f1) for k, (a, b) in t1.items()}
    get = out.get
    for k, (a, b) in t2.items():
        if f2 != 1:
            a *= f2
            b *= f2
        cur = get(k)
        if cur is not None:
            a += cur[0]
            b += cur[1]
            if not a and not b:
                del out[k]
                continue
        out[k] = (a, b)
    return _reduced(p.nvars, out, d)


# -- the store ---------------------------------------------------------------

# the most entries the store holds; a full store evicts the least recently used
_STORE_BOUND = 256
_STORE = OrderedDict()
_STORE_LOCK = threading.Lock()


def _stored(key, entry=None):
    """The engine's one store of derived values, keyed by value: the entry
    under `key`, now the most recently used, or None; given `entry`,
    publishes it whole under `key` first.  Tables in an entry map keys to
    finished values, so other threads see values whole or not at all.  A
    new key evicts before it is inserted, so a reader that does not take
    the lock never sees more entries than the bound."""
    with _STORE_LOCK:
        if entry is not None:
            if key not in _STORE:
                while len(_STORE) >= _STORE_BOUND:
                    _STORE.popitem(last=False)
            _STORE[key] = entry
        elif key not in _STORE:
            return None
        _STORE.move_to_end(key)
        return _STORE[key]


def _divider(divisor):
    """The exact divider by `divisor`: a function mapping a polynomial p to
    p/divisor when the division is exact, else to None.

    Long division on the integer pairs, set up once per divisor.  Each step
    divides the remainder's leading pair by the divisor's leading pair L,
    multiplying by its conjugate and dividing by its norm, nothing to do
    when L = 1 as for every factor-base entry.  When the norm does not
    divide, the remainder and the quotient so far are first multiplied by
    it, so both stay integer pairs over one running denominator.  The
    leading term cancels exactly, so only the divisor's other terms are
    subtracted; their keys fall below the current one, so the remainder's
    keys are kept in one ascending list, where a key that has left the
    remainder is skipped.
    """
    t = divisor._t
    if not t:
        raise ExprDivisionError("division by the zero polynomial")
    nvars, dd = divisor.nvars, divisor._d
    guards = _LAYOUTS[nvars].guards
    lead = max(t)
    la, lb = t[lead]
    if lb:
        wa, wb, norm = la, -lb, la * la + lb * lb
    else:
        wa, wb, norm = (1 if la > 0 else -1), 0, abs(la)
    monic = (la, lb) == (1, 0)
    rest = [(k, a, b) for k, (a, b) in t.items() if k != lead]

    def divide(poly):
        rem = dict(poly._t)
        keys = sorted(rem)
        out, den = {}, 1
        while keys:
            rk = keys.pop()
            pair = rem.pop(rk, None)
            if pair is None:
                continue
            qk = (rk | guards) - lead
            if qk & guards != guards:
                return None  # an exponent of the quotient would be negative
            qk ^= guards
            if monic:
                qa, qb = pair
            else:
                ra, rb = pair
                qa, qb = ra * wa - rb * wb, ra * wb + rb * wa
                if norm != 1:
                    if qa % norm or qb % norm:
                        rem = {k: (a * norm, b * norm) for k, (a, b) in rem.items()}
                        out = {k: (a * norm, b * norm) for k, (a, b) in out.items()}
                        den *= norm
                    else:
                        qa //= norm
                        qb //= norm
            out[qk] = (qa, qb)
            for dk, da, db in rest:
                k = qk + dk
                if k & guards:
                    raise ExprError(f"an exponent reached the limit {EXPONENT_LIMIT}")
                cur = rem.get(k)
                if cur is None:
                    rem[k] = (qb * db - qa * da, -qa * db - qb * da)
                    insort(keys, k)
                else:
                    a = cur[0] - (qa * da - qb * db)
                    b = cur[1] - (qa * db + qb * da)
                    if a or b:
                        rem[k] = (a, b)
                    else:
                        del rem[k]
        # poly/divisor = (out/den) * divisor._d / poly._d
        if dd != 1:
            out = {k: (a * dd, b * dd) for k, (a, b) in out.items()}
        return _reduced(nvars, out, den * poly._d)

    return divide


def _monomial_content(poly):
    """The packed exponent of the largest monomial dividing every term of
    poly; 0 for the zero polynomial."""
    keys = iter(poly._t)
    common = next(keys, 0)
    if common:
        lay = _LAYOUTS[poly.nvars]
        for k in keys:
            common = _field_min(common, k, lay)
            if not common:
                break
    return common


def _shifted(poly, delta):
    """poly times the monomial with packed exponent delta; a negative delta
    lowers the exponents by -delta, which must divide every term."""
    t = {k + delta: pair for k, pair in poly._t.items()}
    if delta > 0:
        _check_keys(_keys_bits(t), poly.nvars)
    return _poly(poly.nvars, t, poly._d)


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
        if _monomial_content(poly):
            raise ExprError(f"factor base entry {poly.render()!r} has a monomial factor")
        monic, _ = _monic(poly)
        self.monic = monic
        self.divide = _divider(monic)
        self.powers = [ChartPolynomial.one(poly.nvars), monic]
        self.derivatives = tuple(monic.derivative(j) for j in range(poly.nvars))

    def power(self, k):
        powers = self.powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.monic)
        return powers[k]


class _FactorBase(tuple):
    """A factor base: the tuple of its polynomials, with their `_Factor`s.

    Interned by value in the store, so the values of one chart share one
    object and most base comparisons are identity tests.  Entries are
    checked to have no monomial factor, and no entry may repeat or divide
    another; irreducible, pairwise coprime entries are the chart author's
    promise.  `zero_values` and `one_values` hold the zero and the one over
    the base, one per number of coordinates.
    """

    def __new__(cls, polys):
        self = super().__new__(cls, polys)
        self.factors = tuple(_Factor(b) for b in self)
        self.zeros = (0,) * len(self)
        self.zero_values = {}
        self.one_values = {}
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


_NO_BASE = _FactorBase(())


def factor_base(polys):
    """The validated factor base of the polynomials `polys`, interned as a
    base entry of the store.

    Raises ExprError for a constant entry, an entry with a monomial factor,
    or an entry that repeats (up to a constant) or divides another.
    """
    if type(polys) is _FactorBase:
        return polys
    polys = tuple(polys)
    if not polys:
        return _NO_BASE
    key = ("base", polys)
    return _stored(key) or _stored(key, _FactorBase(polys))


def _joined_base(b1, b2):
    """The base of a value combined from values over b1 and b2: b1 followed
    by the entries of b2 it lacks, b1 itself when it lacks none."""
    if b1 is b2 or not b2:
        return b1
    if not b1:
        return b2
    extra = tuple(b for b in b2 if b not in b1)
    return factor_base(b1 + extra) if extra else b1


def _new(num, mono, exps, base):
    out = object.__new__(ChartExpr)
    out.num = num
    out._mono = mono
    out._exps = exps
    out.base = base
    return out


def _zero(nvars, base):
    """The zero over `base`, one shared value per number of coordinates:
    values are immutable."""
    hit = base.zero_values.get(nvars)
    if hit is None:
        hit = base.zero_values[nvars] = _new(_poly(nvars, {}, 1), 0, base.zeros, base)
    return hit


def _one(nvars, base):
    """The one over `base`, shared as `_zero` shares zeros."""
    hit = base.one_values.get(nvars)
    if hit is None:
        hit = base.one_values[nvars] = _new(ChartPolynomial.one(nvars), 0, base.zeros, base)
    return hit


def _added(t1, t2):
    if not any(t1):
        return t2
    return t1 if not any(t2) else tuple(map(operator.add, t1, t2))


def _mono_product(m1, m2, nvars):
    """The packed exponent of x^m1 * x^m2."""
    if not m1 or not m2:
        return m1 or m2
    _check_keys(m1 + m2, nvars)
    return m1 + m2


def _cancel(num, mono, exps, factors, most_mono, most_exps):
    """Divide num by the coordinates and base factors it shares with the
    denominator x^mono * prod b_i^exps_i, by x_j at most most_mono's field j
    times and by b_i at most most_exps[i] times; returns num and the lowered
    exponents.  Only the numerator is ever divided."""
    if most_mono:
        common = _field_min(most_mono, _monomial_content(num), _LAYOUTS[num.nvars])
        if common:
            num = _shifted(num, -common)
            mono -= common
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
    packed exponent of a coordinate monomial and e is aligned with the
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
        mono, exps = 0, base.zeros
        if den is not None and den.is_zero():
            raise ExprDivisionError("zero denominator")
        if den is not None and not num.is_zero():
            # split den into a monomial and powers of the base factors; what
            # is left must divide num, then num is divided by what it shares
            # with the factored part
            mono = _monomial_content(den)
            if mono:
                den = _shifted(den, -mono)
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
        return _zero(2 * n, _NO_BASE)

    @staticmethod
    def one(n):
        return _one(2 * n, _NO_BASE)

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
            out = _poly(self.num.nvars, {self._mono: (1, 0)}, 1)
        elif self._mono:
            out = _shifted(out, self._mono)
        return out

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self._mono and not any(self._exps)

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
        return _joined_base(self.base, other.base)

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
            lay = _LAYOUTS[a.num.nvars]
            mono = _field_max(a._mono, b._mono, lay)
            exps = tuple(map(max, a._exps, b._exps))
            na = a._cofactor(mono, exps)
            nb = b._cofactor(mono, exps)
            num = na - nb if subtract else na + nb
            most_mono = _field_common(a._mono, b._mono, lay)
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
            # mono is at least self._mono in every field, so no field borrows
            num = _shifted(num, mono - self._mono)
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
        return _new(n1 * n2, _mono_product(m1, m2, a.num.nvars), _added(e1, e2), base)

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
        if other.is_constant():
            return self.scale(other.constant_value().inverse())
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
        result = _one(self.nvars, self.base)
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
        if not mono and not any(exps):
            if num.is_constant():
                return _zero(self.nvars, base)
            dnum = num.derivative(index)
            return _new(dnum, 0, exps, base) if dnum._t else _zero(self.nvars, base)
        dnum = num.derivative(index)
        factors = base.factors
        # the factors of the denominator D that involve x_index, with their
        # derivatives times their exponents
        involved = tuple(bool(e) and not fac.derivatives[index].is_zero()
                         for fac, e in zip(factors, exps))
        parts = [(fac.monic, fac.derivatives[index].scale(e))
                 for fac, e, inv in zip(factors, exps, involved) if inv]
        shift = _LAYOUTS[self.nvars].shifts[index]
        mk = (mono >> shift) & _FIELD
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
        most_exps = tuple(0 if inv else e for e, inv in zip(exps, involved))
        new, mono, exps = _cancel(new, mono, exps, factors, mono & ~(_FIELD << shift), most_exps)
        # the parts' exponents were left alone; each goes up by one
        if mk:
            mono = _mono_product(mono, 1 << shift, self.nvars)
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


class _Sums:
    """Sums of chart functions, one per output key, kept in integers until
    they are read.

    The sum under a key is held in groups, one per factored denominator
    x^mono * prod b_i^exps_i: a dict from packed monomials to
    Gaussian-integer pairs over one int denominator.  Adding to a group is
    integer arithmetic alone, with no content pass, cancellation or new
    value.  Reading gives each group one content pass (`_reduced`) and one
    `_cancel` against its own denominator, and joins the groups by
    ChartExpr addition, so a value read is the canonical value that plain
    ChartExpr sums give.

    Values may come over different factor bases.  The sums are held over
    the join of them all; a join only appends entries, so the exponents of
    the groups held so far grow by zeros.
    """

    __slots__ = ("sums", "nvars", "base")

    def __init__(self):
        self.sums = {}
        self.nvars = None
        self.base = None

    def _over(self, c):
        """c over the sums' base, first joined with c's own."""
        base = self.base
        if c.base is base:
            return c
        if base is None:
            self.nvars, self.base = c.num.nvars, c.base
            return c
        joined = _joined_base(base, c.base)
        if joined is not base:
            pad = (0,) * (len(joined) - len(base))
            self.sums = {key: {(mono, exps + pad): acc for (mono, exps), acc in groups.items()}
                         for key, groups in self.sums.items()}
            self.base = joined
        return c._over(joined)

    def _put(self, key, group, t, d, factor=None, sign=1):
        """sums[key] += sign * factor * t/d in the group of denominator
        `group`, for a term dict t, a nonzero GaussianRational factor (None
        is 1) and a sign of +-1."""
        if factor is None:
            va, vb = sign, 0
        else:
            va, vb, d = sign * factor.a, sign * factor.b, d * factor.d
        groups = self.sums.get(key)
        if groups is None:
            groups = self.sums[key] = {}
        acc = groups.get(group)
        if acc is None:
            if vb:
                pairs = {k: (a * va - b * vb, a * vb + b * va) for k, (a, b) in t.items()}
            elif va != 1:
                pairs = {k: (a * va, b * va) for k, (a, b) in t.items()}
            else:
                pairs = dict(t)
            groups[group] = [pairs, d]
            return
        pairs, den = acc
        if den != d:
            # over the lcm of the two denominators
            g = math.gcd(den, d)
            up = d // g
            if up != 1:
                pairs = acc[0] = {k: (a * up, b * up) for k, (a, b) in pairs.items()}
                acc[1] = den * up
            va, vb = va * (den // g), vb * (den // g)
        get = pairs.get
        for k, (a, b) in t.items():
            if vb:
                a, b = a * va - b * vb, a * vb + b * va
            elif va != 1:
                a, b = a * va, b * va
            cur = get(k)
            if cur is not None:
                a += cur[0]
                b += cur[1]
                if not a and not b:
                    del pairs[k]
                    continue
            pairs[k] = (a, b)

    def add(self, key, c, factor=None, sign=1):
        """sums[key] += sign * c * factor, for a sign of +-1 and a factor in
        any form a contraction factor takes: None for 1, a GaussianRational
        or a ChartExpr."""
        if type(factor) is ChartExpr:
            self.add_product(key, c, factor, None, sign)
            return
        if not c.num._t or (factor is not None and not factor):
            return
        c = self._over(c)
        self._put(key, (c._mono, c._exps), c.num._t, c.num._d, factor, sign)

    def add_gradient(self, c, key):
        """sums[key(j)] += the derivative of c along x_j, for every x_j it
        is not zero along: inline for a polynomial c, through
        ChartExpr.differentiate otherwise."""
        if c._mono or any(c._exps):
            for j in range(c.num.nvars):
                self.add(key(j), c.differentiate(j))
            return
        num = self._over(c).num
        group = (0, self.base.zeros)
        bits = _keys_bits(num._t)
        for j, shift in enumerate(_LAYOUTS[num.nvars].shifts):
            if not (bits >> shift) & _FIELD:
                continue
            unit = 1 << shift
            t = {}
            for k, (a, b) in num._t.items():
                e = (k >> shift) & _FIELD
                if e:
                    t[k - unit] = (a * e, b * e)
            self._put(key(j), group, t, num._d)

    def add_product(self, key, c1, c2, factor=None, sign=1):
        """sums[key] += sign * c1 * c2 * factor, for a sign and a factor as
        `add` takes them: the numerators are multiplied and the
        denominators' exponents added, with nothing cancelled.  With a
        ChartExpr factor, c1 * c2 is formed as a ChartExpr first, so no more
        than two numerators are multiplied uncancelled."""
        if type(factor) is ChartExpr:
            c1, c2, factor = c1 * c2, factor, None
        if not c1.num._t or not c2.num._t or (factor is not None and not factor):
            return
        c1 = self._over(c1)
        c2 = self._over(c2)
        # c2 may have widened the base c1 is over
        c1 = c1._over(self.base)
        num = c1.num * c2.num
        group = (_mono_product(c1._mono, c2._mono, num.nvars), _added(c1._exps, c2._exps))
        self._put(key, group, num._t, num._d, factor, sign)

    def items(self, div=None):
        """(key, sum) for every key whose sum is not zero, in the order the
        keys were first added to, each sum divided by the int div(key) when
        `div` is given.  Reading consumes the sums."""
        sums, self.sums = self.sums, None
        nvars, base = self.nvars, self.base
        for key, groups in sums.items():
            d_key = div(key) if div is not None else 1
            total = None
            for (mono, exps), (t, d) in groups.items():
                if not t:
                    continue
                num, m, e = _cancel(_reduced(nvars, t, d * d_key), mono, exps, base.factors,
                                    mono, exps)
                value = _new(num, m, e, base)
                total = value if total is None else total + value
            if total is not None and not total.is_zero():
                yield key, total


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
# the deepest nesting of parentheses and unary minus signs; the parser
# recurses once per level, so no cap would exhaust the interpreter's stack
MAX_NESTING = 100


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
    return max((sum(_unpack(k, poly.nvars)) for k in poly._t), default=0)


def _sizes(value):
    """Term counts of the numerator and of the expanded denominator of a
    parsed value, a ChartPolynomial or a ChartExpr."""
    if type(value) is ChartPolynomial:
        return len(value._t), 1
    return len(value.num._t), 1 if value.is_polynomial() else len(value.den._t)


def _total_degree(value):
    """The degree of the numerator plus that of the denominator."""
    if type(value) is ChartPolynomial:
        return _degree(value)
    return _degree(value.num) + _degree(value.den)


def _cap_terms(bound, pos):
    if bound > MAX_TERMS:
        raise ParseError(f"result of up to {bound} terms exceeds the cap of {MAX_TERMS}", pos)


def _integer(tok):
    try:
        return int(tok[1])
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long", tok[2])


class _Parser:
    """Recursive-descent parser for the chart expression grammar.

    A value stays a ChartPolynomial until a division by a non-constant or a
    negative power of a variable gives it a denominator.  From there on it
    is a ChartExpr over the factor base, and so is every value combined
    with it, so every rational value is held factored over the base."""

    def __init__(self, text, n, base):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = n
        self.base = factor_base(base)

    def lift(self, value):
        """A parsed value as a ChartExpr over the base."""
        if type(value) is ChartExpr:
            return value
        if not value._t:
            return _zero(value.nvars, self.base)
        return _new(value, 0, self.base.zeros, self.base)

    def operands(self, left, right):
        """Two polynomials as they are, else both as ChartExprs."""
        if type(left) is type(right):
            return left, right
        return self.lift(left), self.lift(right)

    def denominator(self, value):
        """The factored denominator (mono, exps) of a parsed value."""
        if type(value) is ChartPolynomial:
            return 0, self.base.zeros
        return value._mono, value._exps

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

    def nested(self, parse, pos):
        """parse() one level deeper, within the nesting cap."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than the cap of {MAX_NESTING} levels", pos)
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse(self):
        value = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return self.lift(value)

    def sum(self):
        left = self.product()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            right = self.product()
            (an, ad), (bn, bd) = _sizes(left), _sizes(right)
            # every rational value of the parse is over the parser's base,
            # where equal denominators have equal exponents
            same_den = self.denominator(left) == self.denominator(right)
            _cap_terms(an + bn if same_den else max(an * bd + bn * ad, ad * bd), pos)
            left, right = self.operands(left, right)
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
                left, right = self.operands(left, right)
                left = left * right
            else:
                if right.is_zero():
                    raise ParseError("division by zero expression", pos)
                _cap_terms(max(an * bd, ad * bn), pos)
                if type(right) is ChartPolynomial and right.is_constant():
                    left = left.scale(right.constant_value().inverse())
                else:
                    left = self.lift(left) / self.lift(right)
        return left

    def power(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return -self.nested(self.power, tok[2])
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
            degree = abs(exponent) * _total_degree(base)
            if degree > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power of degree {degree} exceeds the cap of {MAX_POWER_DEGREE}", exp_tok[2]
                )
            # a power of t terms has at most comb(t + k - 1, k) terms
            k = abs(exponent)
            _cap_terms(max(math.comb(t + k - 1, k) for t in _sizes(base) if t), exp_tok[2])
            if exponent >= 0 or type(base) is ChartExpr:
                return base ** exponent
            if base.is_constant():
                return ChartPolynomial.constant(base.nvars, base.constant_value() ** exponent)
            return self.lift(base) ** exponent
        return base

    def atom(self):
        """Returns (expr, is_atomic); atoms admit negative exponents."""
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return ChartPolynomial.constant(2 * self.n, _integer(tok)), True
        if kind == "name":
            if text == "i":
                return ChartPolynomial.constant(2 * self.n, GR_I), True
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
            return ChartPolynomial.variable(2 * self.n, offset + index - 1), True
        if kind == "(":
            inner = self.nested(self.sum, pos)
            self.expect(")")
            return inner, False
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text, n, base=()):
    """Parse `text` into a canonical ChartExpr on an n-dimensional chart,
    held over the factor base `base`.  Raises ExprError when a denominator
    does not factor over the base and the coordinates."""
    return _Parser(text, n, base).parse()
