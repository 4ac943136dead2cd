"""Degree-truncated formal Weyl algebra over a chart.

Elements are finite sums of terms

    nu^p * coeff * (symmetric word in dz1..dzn, dzb1..dzbn)
                 * (antisymmetric word in the same symbols)

with ChartExpr coefficients.  A term is keyed by (nu_power, sym, asym)
where `sym` is a multiplicity vector of length 2n and `asym` is a bitmask
over the 2n one-form symbols, stored in the canonical ascending order
dz1 < .. < dzn < dzb1 < .. < dzbn with all reordering signs absorbed into
the coefficient.

The total degree of a term is Deg = |sym| + 2*nu_power.  Every element
carries a truncation bound K (None = unbounded) and all operators drop
terms with Deg > K eagerly; the fixed-point recursions downstream are
finitary exactly on this filtration.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import ChartExpr, GaussianRational, var_name

GR_I = GaussianRational(0, 1)
# 1/i = -i and 2/i = -2i: the couplings of the fibrewise products.
INV_I = GaussianRational(0, -1)
TWO_OVER_I = GaussianRational(0, -2)
MINUS_TWO_OVER_I = GaussianRational(0, 2)

KINDS = ("weyl", "wick", "antiwick")


class DimensionMismatch(Exception):
    pass


class NuDivisionError(ValueError):
    """An element is not divisible by the power of nu a product divides by."""


def _combine_trunc(t1, t2):
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


# -- bitmask helpers ---------------------------------------------------------


def _popcount_below(mask, j):
    return bin(mask & ((1 << j) - 1)).count("1")


def _pass_sign(j, mask):
    """Sign of moving symbol j past the symbols of the sorted word `mask` below it.

    This is the sign of wedging j onto the word from the left, and of the
    antisymmetric insertion removing j from it.
    """
    return -1 if _popcount_below(mask, j) & 1 else 1


def _wedge(mask1, mask2):
    """(mask, sign) of the wedge of two sorted words, or (None, 0) if they overlap."""
    if mask1 & mask2:
        return None, 0
    sign = 1
    rest = mask2
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        above = mask1 >> (j + 1)
        if bin(above).count("1") & 1:
            sign = -sign
        rest ^= low
    return mask1 | mask2, sign


def _subst_sign(mask, old, new):
    """Sign for replacing symbol `old` by `new` in the sorted word `mask`.

    Returns 0 when `new` already occurs elsewhere in the word.
    """
    if new == old:
        return 1
    rest = mask & ~(1 << old)
    if rest & (1 << new):
        return 0
    s = _pass_sign(old, mask)
    if _popcount_below(rest, new) & 1:
        s = -s
    return s


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- the element --------------------------------------------------------------


class WeylElement:
    """Finite graded element of the truncated Weyl algebra."""

    __slots__ = ("n", "truncation", "terms", "_views")

    def __init__(self, n, terms=None, truncation=None):
        self.n = n
        self.terms = terms if terms is not None else {}
        self.truncation = truncation
        self._views = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n, truncation=None):
        return WeylElement(n, {}, truncation)

    @staticmethod
    def scalar(expr, truncation=None, nu_power=0):
        n = expr.n
        el = WeylElement(n, {}, truncation)
        if not expr.is_zero():
            deg = 2 * nu_power
            if truncation is None or deg <= truncation:
                el.terms[(nu_power, (0,) * (2 * n), 0)] = expr
        return el

    @staticmethod
    def unit(n, truncation=None):
        return WeylElement.scalar(ChartExpr.one(n), truncation)

    @staticmethod
    def from_terms(n, items, truncation=None):
        """items: iterable of (nu_power, sym tuple, asym mask, ChartExpr)."""
        el = WeylElement(n, {}, truncation)
        for p, sym, asym, coeff in items:
            el._add(p, sym, asym, coeff)
        return el

    @staticmethod
    def sym_generator(n, index, truncation=None):
        sym = [0] * (2 * n)
        sym[index] = 1
        return WeylElement(
            n, {(0, tuple(sym), 0): ChartExpr.one(n)}, truncation
        )

    @staticmethod
    def asym_generator(n, index, truncation=None):
        return WeylElement(n, {(0, (0,) * (2 * n), 1 << index): ChartExpr.one(n)}, truncation)

    # -- basic structure -----------------------------------------------------

    def _add(self, p, sym, asym, coeff):
        if coeff.is_zero():
            return
        deg = sum(sym) + 2 * p
        if self.truncation is not None and deg > self.truncation:
            return
        key = (p, sym, asym)
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = coeff
        else:
            s = cur + coeff
            if s.is_zero():
                del self.terms[key]
            else:
                self.terms[key] = s

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.n != other.n:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatch("chart dimensions differ")
        out = WeylElement(self.n, dict(self.terms), _combine_trunc(self.truncation, other.truncation))
        if out.truncation is not None:
            out.terms = {
                k: c for k, c in out.terms.items() if sum(k[1]) + 2 * k[0] <= out.truncation
            }
        for (p, sym, asym), coeff in other.terms.items():
            out._add(p, sym, asym, coeff)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeylElement(self.n, {k: -c for k, c in self.terms.items()}, self.truncation)

    def scale(self, factor):
        """Multiply by a scalar (number or chart function)."""
        if isinstance(factor, (int, Fraction, GaussianRational)):
            factor = GaussianRational.coerce(factor)
            if factor.is_zero():
                return WeylElement.zero(self.n, self.truncation)
            return WeylElement(
                self.n, {k: c.scale(factor) for k, c in self.terms.items()}, self.truncation
            )
        out = WeylElement(self.n, {}, self.truncation)
        for (p, sym, asym), coeff in self.terms.items():
            out._add(p, sym, asym, coeff * factor)
        return out

    def mul_nu(self, power=1):
        out = WeylElement(self.n, {}, self.truncation)
        for (p, sym, asym), coeff in self.terms.items():
            out._add(p + power, sym, asym, coeff)
        return out

    def div_nu(self, power=1):
        for (p, _, _) in self.terms:
            if p < power:
                raise NuDivisionError("element is not divisible by nu^%d" % power)
        out = WeylElement(self.n, {}, self.truncation)
        for (p, sym, asym), coeff in self.terms.items():
            out._add(p - power, sym, asym, coeff)
        return out

    def truncate(self, K):
        terms = {k: c for k, c in self.terms.items() if sum(k[1]) + 2 * k[0] <= K}
        return WeylElement(self.n, terms, K)

    def with_truncation(self, K):
        if K is None:
            return WeylElement(self.n, dict(self.terms), None)
        return self.truncate(K)

    # -- grading -------------------------------------------------------------

    def component(self, deg):
        """Homogeneous part of total degree `deg`."""
        terms = {k: c for k, c in self.terms.items() if sum(k[1]) + 2 * k[0] == deg}
        return WeylElement(self.n, terms, self.truncation)

    def max_deg(self):
        return max((sum(k[1]) + 2 * k[0] for k in self.terms), default=0)

    def min_deg(self):
        return min((sum(k[1]) + 2 * k[0] for k in self.terms), default=0)

    def deg_a_components(self):
        """Split into parts of fixed antisymmetric degree."""
        out = {}
        for key, coeff in self.terms.items():
            d = bin(key[2]).count("1")
            out.setdefault(d, WeylElement(self.n, {}, self.truncation)).terms[key] = coeff
        return out

    def max_sym_degree(self):
        return max((sum(k[1]) for k in self.terms), default=0)

    # -- rendering ------------------------------------------------------------

    def sorted_keys(self):
        return sorted(self.terms)

    def serialize(self):
        if not self.terms:
            return "0"
        n = self.n
        pieces = []
        for key in self.sorted_keys():
            p, sym, asym = key
            coeff = self.terms[key]
            parts = []
            if p > 0:
                parts.append(f"nu^{p}")
            parts.append(f"({coeff.pretty()})")
            syms = []
            for i, e in enumerate(sym):
                syms.extend([f"d{var_name(i, n)}"] * e)
            if syms:
                parts.append(" v ".join(syms))
            text = " * ".join(parts)
            if asym:
                text += " ^ " + " ^ ".join(f"d{var_name(j, n)}" for j in _iter_bits(asym))
            pieces.append(text)
        return " + ".join(pieces)

    def __repr__(self):
        return f"<WeylElement {self.serialize()}>"


# -- formal power series output ------------------------------------------------


class NuSeries:
    """Truncated formal power series with ChartExpr coefficients.

    The length is fixed at creation; trailing zeros are kept so the
    truncation order stays visible.  `param` only affects rendering (the
    separation-of-variables product is a series in a different symbol).
    """

    __slots__ = ("coeffs", "param")

    def __init__(self, coeffs, param="nu"):
        self.coeffs = list(coeffs)
        self.param = param

    @staticmethod
    def zeros(n, order, param="nu"):
        return NuSeries([ChartExpr.zero(n) for _ in range(order + 1)], param)

    @staticmethod
    def from_function(expr, order, param="nu"):
        s = NuSeries.zeros(expr.n, order, param)
        s.coeffs[0] = expr
        return s

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, r):
        return self.coeffs[r]

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, NuSeries):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other):
        assert len(self.coeffs) == len(other.coeffs)
        return NuSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.param)

    def __sub__(self, other):
        assert len(self.coeffs) == len(other.coeffs)
        return NuSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.param)

    def __neg__(self):
        return NuSeries([-a for a in self.coeffs], self.param)

    def scale(self, factor):
        if isinstance(factor, (int, Fraction, GaussianRational)):
            return NuSeries([a.scale(GaussianRational.coerce(factor)) for a in self.coeffs], self.param)
        return NuSeries([a * factor for a in self.coeffs], self.param)

    def shift(self, power):
        """Multiply by param^power, keeping the order fixed."""
        n = self.coeffs[0].n
        out = [ChartExpr.zero(n) for _ in self.coeffs]
        for r, c in enumerate(self.coeffs):
            if r + power <= self.order:
                out[r + power] = c
        return NuSeries(out, self.param)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def render_lines(self):
        return [f"order{r}: {c.pretty()}" for r, c in enumerate(self.coeffs)]

    def __repr__(self):
        return "<NuSeries " + "; ".join(self.render_lines()) + ">"


# -- undeformed product ---------------------------------------------------------


def mu(a, b, trunc=None):
    """Pointwise product: symmetric product on sym, wedge on asym."""
    if a.n != b.n:
        raise DimensionMismatch("chart dimensions differ")
    out_trunc = trunc if trunc is not None else _combine_trunc(a.truncation, b.truncation)
    out = WeylElement(a.n, {}, out_trunc)
    for (p1, m1, a1), c1 in a.terms.items():
        d1 = sum(m1) + 2 * p1
        for (p2, m2, a2), c2 in b.terms.items():
            if out_trunc is not None and d1 + sum(m2) + 2 * p2 > out_trunc:
                continue
            mask, sign = _wedge(a1, a2)
            if mask is None:
                continue
            sym = tuple(x + y for x, y in zip(m1, m2))
            coeff = c1 * c2
            if sign < 0:
                coeff = -coeff
            out._add(p1 + p2, sym, mask, coeff)
    return out


# -- fibrewise deformed products -------------------------------------------------


# The contraction rule of each fibrewise product: its contraction directions,
# each a pair (left factor gives its antiholomorphic symbol, scale of the
# metric coupling g^{kl}).  Wick contracts dz of the left factor against dzb
# of the right one, anti-Wick the reverse, and Weyl both at half strength,
# the second with the opposite sign.
_CONTRACTIONS = {
    "weyl": ((False, INV_I), (True, GR_I)),
    "wick": ((False, TWO_OVER_I),),
    "antiwick": ((True, MINUS_TWO_OVER_I),),
}


def _coupling_table(kind, chart):
    """Cached scaled metric couplings of the fibrewise contraction, one table
    per contraction direction."""
    memo = chart.contraction_memo("_couplings")
    hit = memo.get(kind)
    if hit is not None:
        return hit
    n = chart.n
    ginv = chart.inverse_metric
    table = [
        [[ginv[k][l].scale(scale) for l in range(n)] for k in range(n)]
        for _, scale in _CONTRACTIONS[kind]
    ]
    memo[kind] = table
    return table


def _contraction_steps(kind, chart, m1, m2):
    """Yield (new_m1, new_m2, coupling, multiplicity) for one insertion step."""
    n = chart.n
    tables = _coupling_table(kind, chart)
    for (flipped, _), table in zip(_CONTRACTIONS[kind], tables):
        for k in range(n):
            for l in range(n):
                i, j = (n + l, k) if flipped else (k, n + l)
                e1, e2 = m1[i], m2[j]
                if e1 and e2:
                    nm1 = list(m1); nm1[i] -= 1
                    nm2 = list(m2); nm2[j] -= 1
                    yield tuple(nm1), tuple(nm2), table[k][l], e1 * e2


def _pair_contractions(kind, chart, m1, m2):
    """All contraction states of a sym pair, memoized on the chart.

    Returns a list of (level, m1', m2', factor) with the 1/level! of the
    exponential already folded into the factor.  Level 0 is the pointwise
    term with factor 1.  The states depend only on the multiplicity
    vectors, so the table is shared across all coefficient arithmetic.
    """
    memo = chart.contraction_memo((kind, "pairs"))
    key = (m1, m2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    one = ChartExpr.one(chart.n)
    states = {(m1, m2): one}
    result = [(0, m1, m2, one)]
    level = 0
    while states:
        level += 1
        nxt = {}
        for (u, v), factor in states.items():
            for nu_, nv, coupling, mult in _contraction_steps(kind, chart, u, v):
                add = (factor * coupling).scale(GaussianRational(Fraction(mult, level)))
                cur = nxt.get((nu_, nv))
                nxt[(nu_, nv)] = add if cur is None else cur + add
        states = {k: f for k, f in nxt.items() if not f.is_zero()}
        for (u, v), factor in states.items():
            result.append((level, u, v, factor))
    memo[key] = result
    return result


def _pair_products(a, b, kind, chart, out_trunc, over_nu, commutator):
    """The one pair loop behind the fibrewise products: a.b, or with
    `commutator` ad(a)b = a.b - (-1)^(|a||b|) b.a, divided by nu if `over_nu`.

    For a term pair the backward product of a commutator picks up the wedge
    sign of the swapped antisymmetric words, which cancels the Koszul sign,
    so each pair contributes  wedge_sign * c1*c2 * (forward - backward)
    contraction factors.  Their level-0 pointwise parts cancel exactly and
    are skipped.  Contractions keep the total degree of a pair, so pairs
    beyond the output truncation (raised by 2 when dividing by nu) are never
    formed.  A nu^0 term left after the division means the pointwise parts
    did not cancel.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    if a.n != b.n or a.n != chart.n:
        raise DimensionMismatch("chart dimensions differ")
    shift = 1 if over_nu else 0
    cap = None if out_trunc is None else out_trunc + 2 * shift
    first = 1 if commutator else 0
    out = WeylElement(a.n, {}, out_trunc)
    for (p1, m1, a1), c1 in a.terms.items():
        d1 = sum(m1) + 2 * p1
        for (p2, m2, a2), c2 in b.terms.items():
            if cap is not None and d1 + sum(m2) + 2 * p2 > cap:
                continue
            mask, sign = _wedge(a1, a2)
            if mask is None:
                continue
            cc = c1 * c2
            if sign < 0:
                cc = -cc
            p = p1 + p2 - shift
            for level, u, v, factor in _pair_contractions(kind, chart, m1, m2)[first:]:
                sym = tuple(x + y for x, y in zip(u, v))
                out._add(p + level, sym, mask, cc * factor)
            if commutator:
                for level, u, v, factor in _pair_contractions(kind, chart, m2, m1)[1:]:
                    sym = tuple(x + y for x, y in zip(u, v))
                    out._add(p + level, sym, mask, -(cc * factor))
    if over_nu and any(p < 0 for p, _, _ in out.terms):
        raise NuDivisionError("division by nu left a nu^0 term; cancellation failed")
    return out


def circ(a, b, kind, chart, trunc=None):
    """Fibrewise deformed product of the requested kind.

    By default the result carries the smaller of the factors' truncations;
    an explicit `trunc` overrides it (the recursions use a small headroom
    above the stored truncation where exactness of the extra degrees is
    guaranteed by the factors' minimal degrees).
    """
    out_trunc = trunc if trunc is not None else _combine_trunc(a.truncation, b.truncation)
    return _pair_products(a, b, kind, chart, out_trunc, False, False)


def ad(a, b, kind, chart, trunc=None):
    """Graded super-commutator ad(a)b = a.b - (-1)^(|a||b|) b.a (deg_a grading)."""
    out_trunc = trunc if trunc is not None else _combine_trunc(a.truncation, b.truncation)
    return _pair_products(a, b, kind, chart, out_trunc, False, True)


def ad_over_nu(a, b, kind, chart, out_trunc):
    """(1/nu) ad(a)b, exact up to total degree `out_trunc`.

    The pointwise parts of the two orders cancel identically, so every
    surviving term carries at least one power of nu.  Term pairs are
    enumerated up to combined degree out_trunc + 2; call sites keep
    out_trunc <= K - 1 so no components beyond the factors' truncation
    are required.
    """
    return _pair_products(a, b, kind, chart, out_trunc, True, True)


def circ_over_nu(a, b, kind, chart, out_trunc):
    """(1/nu)(a.b), exact up to `out_trunc` for factors of minimal degree >= 2.

    Used by the recursion for the connection element, whose quadratic term
    has an identically vanishing pointwise part (odd antisymmetric degree).
    """
    return _pair_products(a, b, kind, chart, out_trunc, True, False)


def full_contraction_value(m1, m2, kind, chart):
    """Scalar factor of the complete contraction of a sym pair.

    Equals the coefficient produced at the final level of the exponential
    (with the 1/l! folded in) when both multiplicity vectors are depleted;
    zero when they cannot be matched.  Memoized on the chart.
    """
    memo = chart.contraction_memo(kind)
    key = (m1, m2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    l1, l2 = sum(m1), sum(m2)
    if l1 != l2:
        value = ChartExpr.zero(chart.n)
    elif l1 == 0:
        value = ChartExpr.one(chart.n)
    else:
        value = ChartExpr.zero(chart.n)
        for nm1, nm2, coupling, mult in _contraction_steps(kind, chart, m1, m2):
            sub = full_contraction_value(nm1, nm2, kind, chart)
            if sub.is_zero():
                continue
            value = value + (coupling * sub).scale(GaussianRational(Fraction(mult, l1)))
    memo[key] = value
    return value


def _is_diagonal_metric(chart):
    memo = chart.contraction_memo("_diag")
    hit = memo.get("diag")
    if hit is None:
        n = chart.n
        hit = all(
            chart.inverse_metric[k][l].is_zero()
            for k in range(n)
            for l in range(n)
            if k != l
        )
        memo["diag"] = hit
    return hit


def _mirror_multiset(m, n, kind):
    """The unique fully-contractible partner of a sym multiset when the
    metric is diagonal, or None if the multiset cannot deplete.

    Every dz pairs with a dzb of the partner and vice versa, so the partner
    is the swapped multiset; Wick contracts only the left factor's dz and
    anti-Wick only its dzb.
    """
    hol, ahol = m[:n], m[n:]
    if kind == "wick" and any(ahol) or kind == "antiwick" and any(hol):
        return None
    return ahol + hol


def sigma_circ(a, b, kind, chart, max_nu):
    """The scalar part of a.b, computed without forming the full product.

    Only fully contracted pairs contribute to the (0,0)-part, so pairs are
    filtered to equal symmetric size and empty antisymmetric part; for a
    diagonal metric the partner multiset is unique and found by lookup.
    Returns a scalar WeylElement holding the nu-coefficients up to max_nu.
    """
    n = a.n
    out = WeylElement(n, {}, 2 * max_nu)
    diagonal = _is_diagonal_metric(chart)
    if b._views is None:
        b._views = {}
    buckets = b._views.get(("sigma_buckets", diagonal))
    if buckets is None:
        buckets = {}
        for (p2, m2, a2), c2 in b.terms.items():
            if a2:
                continue
            key = m2 if diagonal else sum(m2)
            buckets.setdefault(key, []).append((p2, m2, c2))
        b._views[("sigma_buckets", diagonal)] = buckets
    zero_sym = (0,) * (2 * n)
    for (p1, m1, a1), c1 in a.terms.items():
        if a1:
            continue
        s1 = sum(m1)
        if p1 + s1 > max_nu:
            continue
        if diagonal:
            partner = _mirror_multiset(m1, n, kind)
            matches = buckets.get(partner, ()) if partner is not None else ()
        else:
            matches = buckets.get(s1, ())
        for p2, m2, c2 in matches:
            total_nu = p1 + p2 + s1
            if total_nu > max_nu:
                continue
            value = full_contraction_value(m1, m2, kind, chart)
            if value.is_zero():
                continue
            out._add(total_nu, zero_sym, 0, c1 * c2 * value)
    return out


# -- structural operators ---------------------------------------------------------


def _delta(a, lo, hi):
    """The part of delta over the symbols lo..hi-1: lowers sym, raises asym."""
    out = WeylElement(a.n, {}, a.truncation)
    for (p, sym, asym), coeff in a.terms.items():
        for j in range(lo, hi):
            e = sym[j]
            if not e or (asym >> j) & 1:
                continue
            nm = list(sym)
            nm[j] -= 1
            sign = _pass_sign(j, asym)
            out._add(p, tuple(nm), asym | (1 << j), coeff.scale(GaussianRational(sign * e)))
    return out


def _delta_inv(a, lo, hi):
    """The inverse of _delta(a, lo, hi) off its kernel: delta_star over the
    symbols lo..hi-1, scaled by 1/(deg_s + deg_a) counted over those symbols
    per term; terms of counted degree zero are killed."""
    window = ((1 << hi) - 1) ^ ((1 << lo) - 1)
    out = WeylElement(a.n, {}, a.truncation)
    for (p, sym, asym), coeff in a.terms.items():
        bits = asym & window
        total = sum(sym[lo:hi]) + bin(bits).count("1")
        if total == 0:
            continue
        inv = GaussianRational(Fraction(1, total))
        for j in _iter_bits(bits):
            nm = list(sym)
            nm[j] += 1
            sign = _pass_sign(j, asym)
            out._add(p, tuple(nm), asym & ~(1 << j), coeff.scale(inv if sign > 0 else -inv))
    return out


def delta(a):
    """(1 x dz^i) i_s(Z_i) + (1 x dzb^i) i_s(Zb_i): lowers sym, raises asym."""
    return _delta(a, 0, 2 * a.n)


def delta_star(a):
    """(dz^i x 1) i_a(Z_i) + (dzb^i x 1) i_a(Zb_i): raises sym, lowers asym."""
    out = WeylElement(a.n, {}, a.truncation)
    for (p, sym, asym), coeff in a.terms.items():
        for j in _iter_bits(asym):
            nm = list(sym)
            nm[j] += 1
            sign = _pass_sign(j, asym)
            c = coeff if sign > 0 else -coeff
            out._add(p, tuple(nm), asym & ~(1 << j), c)
    return out


def delta_inv(a):
    """delta_star scaled by 1/(deg_s + deg_a) per term, killing the (0,0) part."""
    return _delta_inv(a, 0, 2 * a.n)


def sigma(a):
    """Projection onto symmetric and antisymmetric degree zero."""
    zero_sym = (0,) * (2 * a.n)
    terms = {k: c for k, c in a.terms.items() if k[1] == zero_sym and k[2] == 0}
    return WeylElement(a.n, terms, a.truncation)


def to_nu_series(a, order, param="nu"):
    """Read a scalar element off as a truncated power series."""
    series = NuSeries.zeros(a.n, order, param)
    zero_sym = (0,) * (2 * a.n)
    for (p, sym, asym), coeff in a.terms.items():
        if sym != zero_sym or asym:
            raise ValueError("element has nonscalar terms")
        if p <= order:
            series.coeffs[p] = series.coeffs[p] + coeff
    return series


def _nabla_direction(a, chart, conn, k, hol, out):
    """Covariant derivative along Z_k (hol) or Zb_k, wedged from the left."""
    n = a.n
    offset = 0 if hol else n
    wedge_bit = offset + k
    gamma = conn.christoffel if hol else conn.christoffel_bar
    window = ((1 << n) - 1) << offset
    for (p, sym, asym), coeff in a.terms.items():
        pieces = []
        dc = coeff.differentiate(wedge_bit)
        if not dc.is_zero():
            pieces.append((sym, asym, dc))
        # sym substitutions
        for aidx in range(n):
            e = sym[offset + aidx]
            if not e:
                continue
            for l in range(n):
                g = gamma[aidx][k][l]
                if g.is_zero():
                    continue
                nm = list(sym)
                nm[offset + aidx] -= 1
                nm[offset + l] += 1
                pieces.append((tuple(nm), asym, (coeff * g).scale(GaussianRational(-e))))
        # asym substitutions
        for bit in _iter_bits(asym & window):
            aidx = bit - offset
            for l in range(n):
                g = gamma[aidx][k][l]
                if g.is_zero():
                    continue
                ssign = _subst_sign(asym, bit, offset + l)
                if ssign == 0:
                    continue
                new_mask = (asym & ~(1 << bit)) | (1 << (offset + l))
                pieces.append((sym, new_mask, (coeff * g).scale(GaussianRational(-ssign))))
        for nsym, mask, c in pieces:
            if (mask >> wedge_bit) & 1:
                continue
            s = _pass_sign(wedge_bit, mask)
            out._add(p, nsym, mask | (1 << wedge_bit), c if s > 0 else -c)


def _nabla(a, chart, conn, sides):
    """The covariant derivative along the directions of the given sides
    (True: holomorphic, False: antiholomorphic)."""
    out = WeylElement(a.n, {}, a.truncation)
    for k in range(a.n):
        for hol in sides:
            _nabla_direction(a, chart, conn, k, hol, out)
    return out


def nabla(a, chart, conn):
    """The covariant derivative as an antisymmetric-degree-1 super-derivation."""
    return _nabla(a, chart, conn, (True, False))


def nabla_z(a, chart, conn):
    return _nabla(a, chart, conn, (True,))


def nabla_zbar(a, chart, conn):
    return _nabla(a, chart, conn, (False,))


# -- holomorphic / antiholomorphic splittings --------------------------------------


def _sym_counts(sym, n):
    return sum(sym[:n]), sum(sym[n:])


def _asym_counts(asym, n):
    hol = asym & ((1 << n) - 1)
    return bin(hol).count("1"), bin(asym >> n).count("1")


def project(a, selector, pq=None):
    """Type projections acting on the index picture only.

    selector: pi_z, pi_zbar, pi_sz, pi_szbar, pi_az, pi_azbar, pi_s, pi_a;
    the last two need pq=(p, q).
    """
    n = a.n
    out = WeylElement(n, {}, a.truncation)
    for key, coeff in a.terms.items():
        _, sym, asym = key
        hs, as_ = _sym_counts(sym, n)
        ha, aa = _asym_counts(asym, n)
        if selector == "pi_z":
            keep = as_ == 0 and aa == 0
        elif selector == "pi_zbar":
            keep = hs == 0 and ha == 0
        elif selector == "pi_sz":
            keep = as_ == 0
        elif selector == "pi_szbar":
            keep = hs == 0
        elif selector == "pi_az":
            keep = aa == 0
        elif selector == "pi_azbar":
            keep = ha == 0
        elif selector == "pi_s":
            keep = (hs, as_) == tuple(pq)
        elif selector == "pi_a":
            keep = (ha, aa) == tuple(pq)
        else:
            raise ValueError(f"unknown projection {selector!r}")
        if keep:
            out.terms[key] = coeff
    return out


def delta_z(a):
    return _delta(a, 0, a.n)


def delta_zbar(a):
    return _delta(a, a.n, 2 * a.n)


def delta_z_inv(a):
    """Inverse of the holomorphic half of delta, counting holomorphic degrees only."""
    return _delta_inv(a, 0, a.n)


def delta_zbar_inv(a):
    """Inverse of the antiholomorphic half of delta, counting antiholomorphic degrees only."""
    return _delta_inv(a, a.n, 2 * a.n)


# -- fibrewise equivalence, parity, conjugation --------------------------------------


def delta_fib(a, chart):
    """g^{kl} i_s(Z_k) i_s(Zb_l): removes one dz and one dzb from the sym part."""
    n = a.n
    ginv = chart.inverse_metric
    out = WeylElement(n, {}, a.truncation)
    for (p, sym, asym), coeff in a.terms.items():
        for k in range(n):
            e1 = sym[k]
            if not e1:
                continue
            for l in range(n):
                e2 = sym[n + l]
                if not e2:
                    continue
                nm = list(sym)
                nm[k] -= 1
                nm[n + l] -= 1
                out._add(p, tuple(nm), asym, (coeff * ginv[k][l]).scale(GaussianRational(e1 * e2)))
    return out


def fib_equiv_S(a, chart, direction="forward"):
    """exp(+-(nu/i) Delta_fib); the finite fibrewise equivalence transformation.

    Each application of Delta_fib removes a dz/dzb pair from the symmetric
    part and contributes one power of nu, so the series terminates and the
    total degree of every contribution is unchanged.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    coupling = INV_I if direction == "forward" else GR_I
    out = WeylElement(a.n, dict(a.terms), a.truncation)
    power = a
    level = 0
    while True:
        level += 1
        power = delta_fib(power, chart).scale(coupling).scale(
            GaussianRational(Fraction(1, level))
        )
        if power.is_zero():
            break
        for (p, sym, asym), coeff in power.terms.items():
            out._add(p + level, sym, asym, coeff)
    return out


def parity_P(x):
    """Sign flip of the odd nu-powers; an involution."""
    if isinstance(x, NuSeries):
        return NuSeries(
            [(-c if r & 1 else c) for r, c in enumerate(x.coeffs)], x.param
        )
    out = WeylElement(x.n, {}, x.truncation)
    for (p, sym, asym), coeff in x.terms.items():
        out._add(p, sym, asym, -coeff if p & 1 else coeff)
    return out


def conj_C(x):
    """Complex conjugation: coefficients conjugated, dz <-> dzb, nu -> -nu."""
    if isinstance(x, NuSeries):
        return NuSeries(
            [
                (-c.conjugate() if r & 1 else c.conjugate())
                for r, c in enumerate(x.coeffs)
            ],
            x.param,
        )
    n = x.n
    out = WeylElement(n, {}, x.truncation)
    for (p, sym, asym), coeff in x.terms.items():
        new_sym = sym[n:] + sym[:n]
        # map each asym bit i -> i+n mod 2n and count the inversions of the
        # mapped word to normalize the ordering
        word = [(b + n) % (2 * n) for b in _iter_bits(asym)]
        inversions = 0
        mask = 0
        for i, b in enumerate(word):
            mask |= 1 << b
            inversions += sum(1 for c in word[i + 1:] if b > c)
        c = coeff.conjugate()
        if (inversions + p) & 1:
            c = -c
        out._add(p, new_sym, mask, c)
    return out
