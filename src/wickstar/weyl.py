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
terms with Deg > K eagerly; the degree recursions downstream are
finitary exactly on this filtration.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import GR_I, GR_ONE, GR_ZERO, ChartExpr, GaussianRational, _Sums, var_name

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


def _conj_mask(mask, n):
    """(mask, sign) of the sorted word `mask` under dz <-> dzb.

    Every dz^k becomes dzb^k and every dzb^l becomes dz^l; restoring the
    ascending order moves each new dz past each new dzb.
    """
    low, high = mask & ((1 << n) - 1), mask >> n
    sign = -1 if (bin(low).count("1") * bin(high).count("1")) & 1 else 1
    return (low << n) | high, sign


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- the element --------------------------------------------------------------


class WeylElement:
    """Finite graded element of the truncated Weyl algebra.

    The constructor takes `terms` as given: it must hold no zero
    coefficient and no term of degree 2p + |sym| above `truncation`.  The
    kernels keep both and rely on them; the named constructors below
    enforce them."""

    __slots__ = ("n", "truncation", "terms")

    def __init__(self, n, terms=None, truncation=None):
        self.n = n
        self.terms = terms if terms is not None else {}
        self.truncation = truncation

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
        """items: iterable of (nu_power, sym tuple, asym mask, ChartExpr);
        the coefficients of equal keys add up."""
        sums = _Sums()
        for p, sym, asym, coeff in items:
            if truncation is None or sum(sym) + 2 * p <= truncation:
                sums.add((p, sym, asym), coeff)
        return WeylElement(n, dict(sums.items()), truncation)

    @staticmethod
    def sym_generator(n, index, truncation=None):
        """y_index, or zero when its degree 1 is above the truncation."""
        sym = [0] * (2 * n)
        sym[index] = 1
        return WeylElement.from_terms(n, [(0, tuple(sym), 0, ChartExpr.one(n))], truncation)

    @staticmethod
    def asym_generator(n, index, truncation=None):
        """dz_index (degree 0), or zero over a negative truncation."""
        return WeylElement.from_terms(
            n, [(0, (0,) * (2 * n), 1 << index, ChartExpr.one(n))], truncation)

    # -- basic structure -----------------------------------------------------

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
        """The sum over the smaller truncation; the coefficients of a key
        both sides hold are added as ChartExprs."""
        if self.n != other.n:
            raise DimensionMismatch("chart dimensions differ")
        K = _combine_trunc(self.truncation, other.truncation)
        terms = dict(self.terms) if K is None else self.truncate(K).terms
        for key, coeff in other.terms.items():
            if K is not None and sum(key[1]) + 2 * key[0] > K:
                continue
            cur = terms.get(key)
            if cur is None:
                terms[key] = coeff
                continue
            total = cur + coeff
            if total.is_zero():
                del terms[key]
            else:
                terms[key] = total
        return WeylElement(self.n, terms, K)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeylElement(self.n, {k: -c for k, c in self.terms.items()}, self.truncation)

    def scale(self, factor):
        """Multiply by a scalar (number or chart function)."""
        if isinstance(factor, (int, Fraction)):
            factor = GaussianRational(factor)
        if factor.is_zero():
            return WeylElement.zero(self.n, self.truncation)
        return WeylElement(self.n, {k: c * factor for k, c in self.terms.items()}, self.truncation)

    def mul_nu(self, power=1):
        K = self.truncation
        terms = {(p + power, sym, asym): c for (p, sym, asym), c in self.terms.items()
                 if K is None or sum(sym) + 2 * (p + power) <= K}
        return WeylElement(self.n, terms, K)

    def div_nu(self, power=1):
        for (p, _, _) in self.terms:
            if p < power:
                raise NuDivisionError("element is not divisible by nu^%d" % power)
        return self.mul_nu(-power)

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
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("series orders differ")
        return NuSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.param)

    def __sub__(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("series orders differ")
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
    sums = _Sums()
    for (p1, m1, a1), c1 in a.terms.items():
        d1 = sum(m1) + 2 * p1
        for (p2, m2, a2), c2 in b.terms.items():
            if out_trunc is not None and d1 + sum(m2) + 2 * p2 > out_trunc:
                continue
            mask, sign = _wedge(a1, a2)
            if mask is not None:
                sums.add_product((p1 + p2, _sym_sum(m1, m2), mask), c1, c2, None, sign)
    return WeylElement(a.n, dict(sums.items()), out_trunc)


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
    per contraction direction.

    On a chart whose inverse metric is constant every coupling is held as a
    GaussianRational, so the contraction searches of `_pair_contractions` and
    `full_contraction_value` run in scalar arithmetic there; otherwise every
    coupling is a ChartExpr."""
    memo = chart._derived("couplings")
    hit = memo.get(kind)
    if hit is not None:
        return hit
    n = chart.n
    ginv = chart.inverse_metric
    constant = all(ginv[k][l].is_constant() for k in range(n) for l in range(n))
    table = [
        [[ginv[k][l].constant_value() * scale if constant else ginv[k][l].scale(scale)
          for l in range(n)] for k in range(n)]
        for _, scale in _CONTRACTIONS[kind]
    ]
    memo[kind] = table
    return table


def _contraction_steps(kind, chart, m1, m2):
    """Yield (new_m1, new_m2, coupling, multiplicity) for one insertion step;
    couplings that vanish are skipped."""
    n = chart.n
    tables = _coupling_table(kind, chart)
    for (flipped, _), table in zip(_CONTRACTIONS[kind], tables):
        for k in range(n):
            for l in range(n):
                i, j = (n + l, k) if flipped else (k, n + l)
                e1, e2 = m1[i], m2[j]
                if e1 and e2 and not table[k][l].is_zero():
                    nm1 = list(m1); nm1[i] -= 1
                    nm2 = list(m2); nm2[j] -= 1
                    yield tuple(nm1), tuple(nm2), table[k][l], e1 * e2


def _pair_contractions(kind, chart, m1, m2, memo):
    """All contraction states of a sym pair, memoized in the store.

    Returns a list of (level, sym, factor): sym is the symmetric word the
    pair leaves, m1' + m2', and the factor has the 1/level! of the
    exponential folded in.  A factor is None when it is 1, which is the
    pointwise level-0 state, a GaussianRational when it is another constant
    and a ChartExpr otherwise, so the pair loop multiplies only by the
    factors that vary.  The states depend only on the multiplicity vectors,
    so one table, `memo` in the chart's geometry entry, serves every pair.
    """
    key = (m1, m2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # the factor 1, in the arithmetic of the couplings
    constant = type(_coupling_table(kind, chart)[0][0][0]) is GaussianRational
    states = {(m1, m2): GR_ONE if constant else ChartExpr.one(chart.n)}
    result = [(0, _sym_sum(m1, m2), None)]
    level = 0
    while states:
        level += 1
        nxt = {}
        for (u, v), factor in states.items():
            for nu_, nv, coupling, mult in _contraction_steps(kind, chart, u, v):
                add = factor * coupling * GaussianRational.ratio(mult, level)
                cur = nxt.get((nu_, nv))
                nxt[(nu_, nv)] = add if cur is None else cur + add
        states = {k: f for k, f in nxt.items() if not f.is_zero()}
        for (u, v), factor in states.items():
            result.append((level, _sym_sum(u, v), _constant_or_expr(factor)))
    memo[key] = result
    return result


def _constant_or_expr(value):
    """A GaussianRational for a constant value, else the ChartExpr itself."""
    if type(value) is GaussianRational or not value.is_constant():
        return value
    return value.constant_value()


def _sym_sum(m1, m2):
    return tuple(x + y for x, y in zip(m1, m2))


def _pair_products(a, b, kind, chart, out_trunc, over_nu, commutator):
    """The one pair loop behind the fibrewise products: a.b, or with
    `commutator` ad(a)b = a.b - (-1)^(|a||b|) b.a, divided by nu if `over_nu`.

    For a term pair the backward product of a commutator picks up the wedge
    sign of the swapped antisymmetric words, which cancels the Koszul sign,
    so each pair contributes  wedge_sign * c1*c2 * (forward - backward)
    contraction factors.  Their level-0 pointwise parts cancel exactly and
    are skipped.  c1*c2 is formed once per pair and added to the integer
    sum of each output term (`expr._Sums`) times each factor; every output
    coefficient is read once.  Contractions keep the total degree of a
    pair, so pairs beyond the output truncation (raised by 2 when dividing
    by nu) are never formed.  A nu^0 term left after the division means the
    pointwise parts did not cancel.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    if a.n != b.n or a.n != chart.n:
        raise DimensionMismatch("chart dimensions differ")
    shift = 1 if over_nu else 0
    cap = None if out_trunc is None else out_trunc + 2 * shift
    first = 1 if commutator else 0
    pairs = chart._derived((kind, "pairs"))
    sums = _Sums()
    for (p1, m1, a1), c1 in a.terms.items():
        d1 = sum(m1) + 2 * p1
        for (p2, m2, a2), c2 in b.terms.items():
            if cap is not None and d1 + sum(m2) + 2 * p2 > cap:
                continue
            mask, sign = _wedge(a1, a2)
            if mask is None:
                continue
            cc = c1 * c2
            p = p1 + p2 - shift
            for level, sym, factor in _pair_contractions(kind, chart, m1, m2, pairs)[first:]:
                sums.add((p + level, sym, mask), cc, factor, sign)
            if commutator:
                for level, sym, factor in _pair_contractions(kind, chart, m2, m1, pairs)[1:]:
                    sums.add((p + level, sym, mask), cc, factor, -sign)
    out = WeylElement(a.n, dict(sums.items()), out_trunc)
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
    zero when they cannot be matched.  A GaussianRational when constant, a
    ChartExpr otherwise.  Memoized in the store.
    """
    memo = chart._derived(kind)
    key = (m1, m2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    l1, l2 = sum(m1), sum(m2)
    if l1 != l2:
        value = GR_ZERO
    elif l1 == 0:
        value = GR_ONE
    else:
        value = None
        for nm1, nm2, coupling, mult in _contraction_steps(kind, chart, m1, m2):
            sub = full_contraction_value(nm1, nm2, kind, chart)
            if sub.is_zero():
                continue
            add = coupling * sub * GaussianRational.ratio(mult, l1)
            value = add if value is None else value + add
        value = GR_ZERO if value is None else _constant_or_expr(value)
    memo[key] = value
    return value


def _partners(n, hol, ahol):
    """The sym multisets over n coordinates with `ahol` dz and `hol` dzb
    symbols: the partners a multiset with `hol` dz and `ahol` dzb can fully
    contract with, each dz meeting a dzb."""

    def spread(total, slots):
        if slots == 1:
            return [(total,)]
        return [(k,) + rest for k in range(total, -1, -1) for rest in spread(total - k, slots - 1)]

    return tuple(h + a for h in spread(ahol, n) for a in spread(hol, n))


def sigma_circ(a, b, kind, chart, max_nu):
    """The scalar part of a.b up to nu^max_nu, computed without forming the
    full product.

    Only fully contracted pairs reach the (0,0)-part.  A term of `a` without
    antisymmetric part is contracted only in the directions `_CONTRACTIONS`
    gives the kind (Wick: its dz, anti-Wick: its dzb, Weyl: both), and its
    partners in `b` are looked up by key: every multiset with as many dzb as
    it has dz and as many dz as it has dzb, at each nu power still in range.
    The partner multisets are a table of the chart's geometry entry.
    Each nu-coefficient is summed in integers (`expr._Sums`) and read once.
    Returns a scalar WeylElement holding the nu-coefficients up to max_nu.
    """
    n = a.n
    sums = _Sums()
    zero_sym = (0,) * (2 * n)
    dz_side = any(not flipped for flipped, _ in _CONTRACTIONS[kind])
    dzb_side = any(flipped for flipped, _ in _CONTRACTIONS[kind])
    memo = chart._derived(kind)
    partners = chart._derived("partners")
    for (p1, m1, a1), c1 in a.terms.items():
        if a1:
            continue
        hol, ahol = sum(m1[:n]), sum(m1[n:])
        low = p1 + hol + ahol
        if low > max_nu or (hol and not dz_side) or (ahol and not dzb_side):
            continue
        words = partners.get((hol, ahol))
        if words is None:
            words = partners[hol, ahol] = _partners(n, hol, ahol)
        for m2 in words:
            for p2 in range(max_nu - low + 1):
                c2 = b.terms.get((p2, m2, 0))
                if c2 is None:
                    continue
                # the inline memo read saves a call per present key
                value = memo.get((m1, m2))
                if value is None:
                    value = full_contraction_value(m1, m2, kind, chart)
                sums.add_product(low + p2, c1, c2, value)
    return WeylElement(n, {(p, zero_sym, 0): c for p, c in sums.items()}, 2 * max_nu)


# -- structural operators ---------------------------------------------------------


def _delta(a, lo, hi):
    """The part of delta over the symbols lo..hi-1: lowers sym, raises asym."""
    sums = _Sums()
    for (p, sym, asym), coeff in a.terms.items():
        for j in range(lo, hi):
            e = sym[j]
            if not e or (asym >> j) & 1:
                continue
            nm = list(sym)
            nm[j] -= 1
            sums.add((p, tuple(nm), asym | (1 << j)), coeff, GaussianRational(e), _pass_sign(j, asym))
    return WeylElement(a.n, dict(sums.items()), a.truncation)


def _delta_star(a, lo, hi, inverse):
    """delta_star over the symbols lo..hi-1: raises sym, lowers asym.  With
    `inverse`, each term is scaled by 1/(deg_s + deg_a) counted over those
    symbols, which inverts _delta(a, lo, hi) off its kernel; terms without
    antisymmetric symbols there are killed.  Every output term is one
    degree above its input term, so input terms at the truncation are
    skipped."""
    window = ((1 << hi) - 1) ^ ((1 << lo) - 1)
    K = a.truncation
    sums = _Sums()
    for (p, sym, asym), coeff in a.terms.items():
        bits = asym & window
        if not bits or (K is not None and sum(sym) + 2 * p >= K):
            continue
        factor = GaussianRational.ratio(1, sum(sym[lo:hi]) + bin(bits).count("1")) if inverse else None
        for j in _iter_bits(bits):
            nm = list(sym)
            nm[j] += 1
            sums.add((p, tuple(nm), asym & ~(1 << j)), coeff, factor, _pass_sign(j, asym))
    return WeylElement(a.n, dict(sums.items()), K)


def delta(a):
    """(1 x dz^i) i_s(Z_i) + (1 x dzb^i) i_s(Zb_i): lowers sym, raises asym."""
    return _delta(a, 0, 2 * a.n)


def delta_star(a):
    """(dz^i x 1) i_a(Z_i) + (dzb^i x 1) i_a(Zb_i): raises sym, lowers asym."""
    return _delta_star(a, 0, 2 * a.n, False)


def delta_inv(a):
    """delta_star scaled by 1/(deg_s + deg_a) per term, killing the (0,0) part."""
    return _delta_star(a, 0, 2 * a.n, True)


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


def _nabla(a, chart, conn, sides):
    """The covariant derivative along Z_k (holomorphic side, True) or Zb_k
    (False) for every k and the given sides, dz^k or dzb^k wedged from the
    left."""
    n = a.n
    sums = _Sums()
    for hol in sides:
        offset = 0 if hol else n
        gamma = conn.christoffel if hol else conn.christoffel_bar
        for k in range(n):
            w = offset + k
            # the nonzero Gamma^a_{kl} (or their bars): symbol a becomes symbol l
            links = [(offset + i, offset + l, gamma[i][k][l])
                     for i in range(n) for l in range(n) if not gamma[i][k][l].is_zero()]
            for (p, sym, asym), coeff in a.terms.items():
                if not (asym >> w) & 1:
                    key = (p, sym, asym | (1 << w))
                    sign = _pass_sign(w, asym)
                    sums.add(key, coeff.differentiate(w), None, sign)
                    # sym substitutions
                    for i, j, g in links:
                        if sym[i]:
                            nm = list(sym)
                            nm[i] -= 1
                            nm[j] += 1
                            sums.add_product((p, tuple(nm), key[2]), coeff, g,
                                             GaussianRational(-sym[i]), sign)
                # asym substitutions
                for i, j, g in links:
                    if not (asym >> i) & 1:
                        continue
                    ssign = _subst_sign(asym, i, j)
                    mask = (asym & ~(1 << i)) | (1 << j)
                    if ssign and not (mask >> w) & 1:
                        sums.add_product((p, sym, mask | (1 << w)), coeff, g, None,
                                         -ssign * _pass_sign(w, mask))
    return WeylElement(n, dict(sums.items()), a.truncation)


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
    return _delta_star(a, 0, a.n, True)


def delta_zbar_inv(a):
    """Inverse of the antiholomorphic half of delta, counting antiholomorphic degrees only."""
    return _delta_star(a, a.n, 2 * a.n, True)


# -- fibrewise equivalence, parity, conjugation --------------------------------------


def delta_fib(a, chart):
    """g^{kl} i_s(Z_k) i_s(Zb_l): removes one dz and one dzb from the sym part."""
    n = a.n
    ginv = chart.inverse_metric
    sums = _Sums()
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
                sums.add_product((p, tuple(nm), asym), coeff, ginv[k][l], GaussianRational(e1 * e2))
    return WeylElement(n, dict(sums.items()), a.truncation)


def fib_equiv_S(a, chart, direction="forward"):
    """exp(+-(nu/i) Delta_fib); the finite fibrewise equivalence transformation.

    Each application of Delta_fib removes a dz/dzb pair from the symmetric
    part and contributes one power of nu, so the series terminates and the
    total degree of every contribution is unchanged.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    coupling = INV_I if direction == "forward" else GR_I
    sums = _Sums()
    for key, coeff in a.terms.items():
        sums.add(key, coeff)
    power = a
    level = 0
    while True:
        level += 1
        power = delta_fib(power, chart).scale(coupling).scale(
            GaussianRational.ratio(1, level)
        )
        if power.is_zero():
            break
        for (p, sym, asym), coeff in power.terms.items():
            sums.add((p + level, sym, asym), coeff)
    return WeylElement(a.n, dict(sums.items()), a.truncation)


def parity_P(x):
    """Sign flip of the odd nu-powers; an involution."""
    if isinstance(x, NuSeries):
        return NuSeries(
            [(-c if r & 1 else c) for r, c in enumerate(x.coeffs)], x.param
        )
    terms = {key: -c if key[0] & 1 else c for key, c in x.terms.items()}
    return WeylElement(x.n, terms, x.truncation)


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
    terms = {}
    for (p, sym, asym), coeff in x.terms.items():
        mask, sign = _conj_mask(asym, n)
        c = coeff.conjugate()
        terms[p, sym[n:] + sym[:n], mask] = -c if (sign < 0) != bool(p & 1) else c
    return WeylElement(n, terms, x.truncation)
