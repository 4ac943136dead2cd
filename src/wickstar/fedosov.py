"""The Fedosov engine on a chart.

Builds the connection element r of the chosen fibrewise product from the
data (two-form series, normalization element, truncation degree), the flat
derivation D = -delta + nabla - (1/nu) ad(r), the associated Taylor series
tau(f), and the star product f * g = sigma(tau(f) . tau(g)).  On top of
that sit the verification operations: the Wick-type characterization, the
reduced holomorphic recursions, renormalization and equivalence
transformations, parity transport, the Karabegov form, Hermiticity,
differential order and the separation-of-variables reindexing.

Every equation x = x0 + delta_inv(L x) with L not lowering the total degree
(r, tau(f), the projected Taylor series, the equivalence generator h) is
solved exactly by one loop, `_by_degree`, that builds each homogeneous part
once from the parts below it; `fixed_point` solves the equation for r again,
from any seed, as the witness of uniqueness.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from . import weyl
from .chart import FormSeries, TwoForm
from .expr import GR_I, ChartExpr, ExprError, GaussianRational, _stored, _Sums
from .weyl import NuSeries, WeylElement


class FedosovError(Exception):
    """Violated precondition of a Fedosov-layer operation."""


class ContractViolation(Exception):
    """An internal invariant failed; indicates a construction bug."""


# -- reports -------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    note: str = ""

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def render_lines(self):
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}" + (f": {c.detail}" if c.detail and not c.passed else "") for c in self.checks]
        if self.note:
            lines.append(f"note: {self.note}")
        return lines


# -- fixed point utility -----------------------------------------------------------


def fixed_point(map_fn, start, max_degree):
    """Unique fixed point of a degree-raising map, modulo degree > max_degree.

    It serves `compute_r_via_fixed_point`, the uniqueness witness of r.  The
    caller asserts that the map raises the lowest differing total degree by
    at least one; then iteration from any start is stationary within
    max_degree + 1 steps.  Non-stationarity raises, and a map that is
    stationary immediately is probed at a second point to detect
    non-contracting maps with several fixed points (such as the identity).
    """
    x = start
    for step in range(max_degree + 2):
        nxt = map_fn(x)
        if nxt == x:
            if step == 0:
                probe = x + WeylElement.unit(x.n, x.truncation)
                try:
                    if map_fn(probe) == probe:
                        raise ContractViolation(
                            "map has several fixed points; it is not contracting"
                        )
                except (FedosovError, ExprError, weyl.NuDivisionError):
                    # the probe may leave the map's domain (its unit scalar
                    # part breaks divisibility by nu); any other error is a
                    # bug and propagates
                    pass
            return x
        x = nxt
    raise ContractViolation(
        f"iteration not stationary after {max_degree + 1} steps; "
        "the map does not raise the total degree"
    )


# -- Bernoulli numbers ---------------------------------------------------------------

_BERNOULLI = [Fraction(1)]


def bernoulli(k):
    """Bernoulli numbers from x/(e^x - 1); B1 = -1/2."""
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        total = Fraction(0)
        binom = 1
        for j in range(m):
            total += binom * _BERNOULLI[j]
            binom = binom * (m + 1 - j) // (j + 1)
        _BERNOULLI.append(-total / (m + 1))
    return _BERNOULLI[k]


# -- the Fedosov data ------------------------------------------------------------------

# a Fedosov entry of the store: the checked parts of r and the ad(r) tables
_RSeries = namedtuple("_RSeries", "parts ad_ops")


class FedosovData:
    """Product kind, chart, input data and the computed connection element.

    `r_parts` maps each degree to the nonzero homogeneous part of r of that
    degree, read by the tau operator tables, `_tau_step`, `projected_tau` and h.

    The parts of r do not depend on K below it: with the (1/nu) ad(r)
    tables of the tau step they are a Fedosov entry of the store, keyed by
    the chart's geometry key, the kind, the two-form series and the
    normalization cut at K, and a larger K resumes the recursion.  Every r
    the store computes or extends is checked (`verify_r`) at the K asked for
    before it is published, and a check at K holds at every smaller K.

    Immutable after construction apart from `tau_cache` and the store's
    tables; `tau_cache` maps functions, keyed by their canonical fields (and
    by the weight cut, for a cut series), to the tuple of homogeneous
    parts of tau(f) computed so far, of degree 0..len(parts)-1.
    """

    def __init__(self, kind, chart, K, omega=None, s=None,
                 allow_sym_degree_one=False):
        if kind not in weyl.KINDS:
            raise FedosovError(f"unknown product kind {kind!r}")
        if K < 2:
            raise FedosovError("truncation degree must be at least 2")
        self.kind = kind
        self.chart = chart
        self.K = K
        self.conn = chart.connection
        self.curv = chart.curvature_data
        self.omega = omega if omega is not None else chart.omega_series
        if self.omega.min_power() is not None and self.omega.min_power() < 1:
            raise FedosovError("two-form series must start at nu^1")
        if not self.omega.is_closed():
            raise FedosovError("two-form series is not closed")
        self.s = (s if s is not None else WeylElement.zero(chart.n)).truncate(K)
        self._validate_s(allow_sym_degree_one)
        self.tau_cache = {}
        key = (chart._key, kind, self.omega.render(), self.s.serialize())
        entry = _stored(key) or _RSeries((WeylElement.zero(chart.n),) * 2, {})
        fresh = len(entry.parts) <= K
        if fresh:
            entry = _RSeries(self._compute_r(entry.parts), entry.ad_ops)
        self._entry = entry
        self.r_parts = {k: part for k, part in enumerate(entry.parts[: K + 1]) if not part.is_zero()}
        self.r = _joined(entry.parts, K)
        if fresh:
            self.verify_r()
            _stored(key, entry)

    def _validate_s(self, allow_sym_degree_one):
        if not weyl.sigma(self.s).is_zero():
            raise FedosovError("normalization element must have vanishing scalar part")
        for (p, sym, asym), _ in self.s.terms.items():
            if asym:
                raise FedosovError("normalization element must have antisymmetric degree 0")
            if sum(sym) + 2 * p < 3:
                raise FedosovError("normalization element must have total degree >= 3")
            if sum(sym) == 1 and not allow_sym_degree_one:
                raise FedosovError(
                    "normalization element has a symmetric-degree-1 part; "
                    "pass allow_sym_degree_one to permit it"
                )

    # -- the recursion -------------------------------------------------------------

    def _compute_r(self, known):
        """The untruncated parts 0..K of r = delta(s) + delta_inv(nabla r
        - (1/nu) r.r + R + 1 x Omega) after the known ones: part k+1 is
        delta(s_{k+2}) plus delta_inv of the bracket's part of degree k, which
        reads parts <= k alone, as (1/nu) r_a.r_b has degree a + b - 2 >= a, b."""
        chart, conn, kind, K = self.chart, self.conn, self.kind, self.K
        source = self.curv.curvature_element + self.omega.to_weyl()

        def step(parts):
            k = len(parts) - 1
            quad = WeylElement.zero(chart.n)
            for a in range(2, k + 1):
                if not (parts[a].is_zero() or parts[k + 2 - a].is_zero()):
                    quad = quad + weyl.circ(parts[a], parts[k + 2 - a], kind, chart, trunc=k + 2)
            bracket = source.component(k) + weyl.nabla(parts[k], chart, conn)
            if not quad.is_zero():
                bracket = bracket - quad.div_nu(1)
            return (weyl.delta_inv(bracket) + weyl.delta(self.s.component(k + 2))).with_truncation(None)

        return tuple(_by_degree(known, step, K))

    def verify_r(self):
        """Exact check of the two defining equations up to the truncation."""
        K = self.K
        if weyl.delta_inv(self.r).truncate(K) != self.s:
            raise ContractViolation("connection element fails delta_inv r = s")
        if weyl.delta(self.r).truncate(K - 1) != _r_equation(self, self.r):
            raise ContractViolation("connection element fails its defining equation")
        mn = self.r.min_deg() if not self.r.is_zero() else None
        if mn is not None and mn < 2:
            raise ContractViolation("connection element has total degree < 2")

    # -- the operator tables of the tau step -----------------------------------------

    def _nabla_op(self, memo, m):
        """The Christoffel part of nabla followed by delta_inv, without the
        1/|sym'| of delta_inv, on a term of sym m and no antisymmetric
        symbols: a list of (sym', factor) sending coefficient c to c * factor.

        It is nabla of the word y^m with coefficient 1, whose derivative part
        is zero, raised by `_raised_entries`.  `memo` is the table of the
        chart's geometry entry, as the operator depends on the connection
        alone."""
        hit = memo.get(m)
        if hit is None:
            word = WeylElement(self.chart.n, {(0, m, 0): ChartExpr.one(self.chart.n)})
            image = weyl.nabla(word, self.chart, self.conn)
            hit = memo[m] = _raised_entries(image, lambda p, sym: sym)
        return hit

    def _ad_op(self, l, m):
        """-(1/nu) ad(r_{l+2}) followed by delta_inv, without the 1/|sym'|
        of delta_inv, on a term of sym m and no antisymmetric symbols: a
        list of ((dp, sym', gain), factor) sending nu^p c to nu^(p+dp) c *
        factor, where gain = dp + |sym'| - |m| >= 0 is what the entry adds to
        the weight p + |m| of the term (see `tau`)."""
        memo = self._entry.ad_ops
        hit = memo.get((l, m))
        if hit is None:
            word = WeylElement(self.chart.n, {(0, m, 0): ChartExpr.one(self.chart.n)})
            image = -weyl.ad_over_nu(self.r_parts[l + 2], word, self.kind, self.chart, None)
            size = sum(m)
            hit = memo[l, m] = _raised_entries(image, lambda p, sym: (p, sym, p + sum(sym) - size))
        return hit


def _raised_entries(image, key):
    """A tau operator table entry from the image of a unit word: delta_inv,
    without its 1/|sym'|, moves the one antisymmetric symbol dz^j of each
    term into its symmetric word, sym' = sym + dz^j with sign +1, and the
    terms that land on one key(p, sym') add up.  A list of (key, factor), a
    constant factor held as a GaussianRational.

    `_tau_step` divides by |sym'| alone, and the weight cut of `tau` reads
    an entry's gain off its key, because each term has exactly one such
    symbol: nabla wedges one onto the word, and (1/nu) ad(r) one from r."""
    sums = _Sums()
    for (p, sym, asym), c in image.terms.items():
        j = asym.bit_length() - 1
        if not asym or asym != 1 << j:
            raise ContractViolation(
                "connection element has a term of antisymmetric degree other than 1"
            )
        sums.add(key(p, _raised(sym, j)), c)
    return [(k, weyl._constant_or_expr(c)) for k, c in sums.items()]


def _raised(sym, j):
    """The multiset sym with one more symbol j."""
    out = list(sym)
    out[j] += 1
    return tuple(out)


def _by_degree(parts, step, top):
    """The parts of degree 0..top of x = x0 + delta_inv(L x), L not lowering
    the total degree, from its known parts 0..k: step(parts) returns part
    k+1 from those alone, as delta_inv raises the degree by one."""
    parts = list(parts)
    while len(parts) <= top:
        parts.append(step(parts))
    return parts


def _joined(parts, top):
    """The element whose homogeneous parts are parts[0..top], truncated at top."""
    terms = {}
    for part in parts[: top + 1]:
        terms.update(part.terms)
    return WeylElement(parts[0].n, terms, top)


def _r_equation(data, a):
    """nabla a - (1/nu) a.a + R + 1 x Omega up to total degree K - 1, the
    right side of the connection element's defining equation
    delta r = nabla r - (1/nu) r.r + R + 1 x Omega at r = a."""
    top = data.K - 1
    out = weyl.nabla(a, data.chart, data.conn)
    out = out - weyl.circ_over_nu(a, a, data.kind, data.chart, top)
    out = out + data.curv.curvature_element.truncate(top)
    return out + data.omega.to_weyl(truncation=top)


def compute_r_via_fixed_point(data, seed=None):
    """The connection element by plain fixed-point iteration from any seed,
    a -> delta(s) + delta_inv(`_r_equation`(a)).

    Used to witness uniqueness: every seed must reproduce the element the
    degree-wise recursion computed.
    """
    K = data.K
    ds = weyl.delta(data.s)

    def step(a):
        # lift the equation's truncation before inverting: delta_inv raises
        # the total degree by one, up to K
        return (ds + weyl.delta_inv(_r_equation(data, a).with_truncation(None))).truncate(K)

    start = seed.truncate(K) if seed is not None else WeylElement.zero(data.chart.n, K)
    return fixed_point(step, start, K)


# -- derivation and Taylor series --------------------------------------------------------


def fedosov_D(data, a):
    """D = -delta + nabla - (1/nu) ad(r); exact one degree below the input."""
    trunc = a.truncation if a.truncation is not None else data.K
    out_trunc = min(trunc, data.K) - 1
    out = weyl.nabla(a, data.chart, data.conn) - weyl.delta(a)
    out = out.truncate(out_trunc)
    out = out - weyl.ad_over_nu(data.r, a, data.kind, data.chart, out_trunc)
    return out


def _cut_degree(data, degree):
    """The total degree a Taylor series is computed to: `degree`, by default
    the truncation K, above which r is not known."""
    if degree is None:
        return data.K
    if not 0 <= degree <= data.K:
        raise FedosovError(f"tau degree {degree} is outside 0..{data.K}")
    return degree


def _tau_step(data, parts, weight):
    """The part of degree k+1 of tau from its parts of degree 0..k:
    delta_inv(nabla tau_k - sum_l (1/nu) ad(r_{l+2}) tau_{k-l}) in one pass,
    without its terms of weight above `weight` (see `tau`).

    A part of tau has no antisymmetric symbols and every term of r has
    exactly one.  So every term of the bracket carries one antisymmetric
    symbol dz^j, wedged in front of the empty word by nabla and by the
    product, and taken out of a one-symbol word by delta_inv: both signs
    are +1, and the degree delta_inv divides by, |sym| + 1, is |sym'| for
    the output word sym' = sym + dz^j.  Each contribution is therefore added
    straight to the integer sum of its output term (p, sym'), through the
    derivative of the coefficient and the operator tables of `data`, and
    every output term is read, divided by |sym'|, once at the end.
    """
    k = len(parts) - 1
    sums = _Sums()
    nabla_ops = data.chart._derived("nabla_ops")
    for (p, m, _), c in parts[k].terms.items():
        # the derivative and the Christoffel part add one symbol
        if p + sum(m) >= weight:
            continue
        sums.add_gradient(c, lambda j, p=p, m=m: (p, _raised(m, j)))
        for sym, factor in data._nabla_op(nabla_ops, m):
            sums.add((p, sym), c, factor)
    for l in range(k):
        if l + 2 not in data.r_parts:
            continue
        for (p, m, _), c in parts[k - l].terms.items():
            room = weight - p - sum(m)
            for (dp, sym, gain), factor in data._ad_op(l, m):
                if gain <= room:
                    sums.add((p + dp, sym), c, factor)
    terms = {(p, sym, 0): c for (p, sym), c in sums.items(lambda key: sum(key[1]))}
    return WeylElement(data.chart.n, terms, data.K)


def _tau_key(f):
    """The key of tau(f) in `tau_cache`: the canonical fields of f, which do
    not depend on the factor base f is held over."""
    return (f.num, f._mono, tuple((b, e) for b, e in zip(f.base, f._exps) if e))


def tau(data, f, degree=None, weight=None):
    """The unique D-flat element with scalar part f, by the degree recursion,
    up to total degree `degree` (default: the truncation K); with `weight`,
    only its terms nu^p y^m of weight p + |m| <= weight.

    The part of degree k+1 is built from the parts of degree <= k alone
    (nabla keeps the degree, (1/nu) ad(r) with deg r >= 2 does not lower it,
    delta_inv raises it by one), so the series cut at `degree` is exact up
    to that degree.  `_tau_step` computes each part in one pass, fusing
    nabla, (1/nu) ad(r) and delta_inv; the fusion is exact because a part of
    tau has no antisymmetric symbols and every term of r has exactly one,
    so delta_inv divides each output term by the size of its symmetric word
    with sign +1.

    The weight cut is exact too, because no step lowers the weight.  The
    derivative and the Christoffel part of nabla add one symbol: w' = w + 1.
    A term nu^p_r y^m_r dz^j of r, contracted with a term of weight w at
    level L <= |m_r|, gives nu^(p + p_r - 1 + L) and a word of |m| + |m_r|
    - 2L + 1 symbols: w' = w + p_r + |m_r| - L >= w.  That needs the one
    antisymmetric symbol of every term of r, which `_raised_entries`
    enforces.  So a term above the cut only ever feeds terms above it, and
    dropping them leaves every term at or below the cut as it was.  σ at
    nu^N reads only the terms of weight <= N, so `star` asks for no more.

    The parts are cached per function and per weight cut, a cut series never
    under the key of the full one, and a request for a higher degree
    resumes the recursion from the last part.  A cut request is served from
    the full series when that holds its degree: as no step lowers the
    weight, the full series without its terms above the cut is the cut one."""
    degree = _cut_degree(data, degree)
    key = _tau_key(f)
    if weight is None:
        # no term of degree <= K has a weight above K
        top = data.K
    else:
        if weight < 0:
            raise FedosovError(f"tau weight {weight} is negative")
        full = data.tau_cache.get(key)
        if full is not None and len(full) > degree:
            terms = {k: c for part in full[: degree + 1] for k, c in part.terms.items()
                     if k[0] + sum(k[1]) <= weight}
            return WeylElement(f.n, terms, degree)
        top, key = weight, (key, weight)
    parts = data.tau_cache.get(key)
    if parts is None or len(parts) <= degree:
        known = parts or (WeylElement.scalar(f, truncation=data.K),)
        parts = data.tau_cache[key] = tuple(_by_degree(known, lambda p: _tau_step(data, p, top), degree))
    return _joined(parts, degree)


# -- the star product ------------------------------------------------------------------


def _require_order(data, N):
    """A series up to nu^N reads Taylor series to total degree 2N; the
    recursions behind them read r, and h in ad(h), up to degree 2N + 2."""
    if data.K < 2 * N + 2:
        raise FedosovError(
            f"truncation {data.K} is insufficient for order {N}; need K >= {2 * N + 2}"
        )


def star(data, f, g, N):
    """f * g = sigma(tau(f) . tau(g)) as a series up to order N."""
    _require_order(data, N)
    # sigma reads the terms of weight <= N of either factor, all of total
    # degree <= 2N
    tf = tau(data, f, 2 * N, N)
    tg = tau(data, g, 2 * N, N)
    scal = weyl.sigma_circ(tf, tg, data.kind, data.chart, max_nu=N)
    return weyl.to_nu_series(scal, N)


def star_series(data, F, G, N):
    """The bilinear extension of the star product to truncated series (or
    functions), up to order N."""
    return _extend_over_series(
        lambda f, M: _extend_over_series(lambda g, L: star(data, f, g, L), G, M), F, N)


def closed_form_flat(chart, f, g, kind, N):
    """The explicit exponential formulas on a flat chart; the independent
    oracle for the Fedosov product there."""
    if kind not in ("wick", "antiwick"):
        raise FedosovError("closed form exists for the wick and antiwick kinds")
    if not chart.is_flat():
        raise FedosovError("closed-form product requires a flat chart")
    n = chart.n
    coupling = GaussianRational(0, -2) if kind == "wick" else GaussianRational(0, 2)
    out = NuSeries.zeros(n, N)
    # the exponential of the contraction by the constant inverse metric,
    # one level per power of nu, iterated over contraction states
    states = [(f, g, ChartExpr.one(n))]
    out.coeffs[0] = f * g
    for level in range(1, N + 1):
        nxt = []
        for ff, gg, factor in states:
            for k in range(n):
                for l in range(n):
                    gkl = chart.inverse_metric[k][l]
                    if gkl.is_zero():
                        continue
                    if kind == "wick":
                        dff = ff.differentiate(k)
                        dgg = gg.differentiate(n + l)
                    else:
                        dff = ff.differentiate(n + l)
                        dgg = gg.differentiate(k)
                    if dff.is_zero() or dgg.is_zero():
                        continue
                    nxt.append((dff, dgg, (factor * gkl).scale(
                        GaussianRational.ratio(1, level) * coupling
                    )))
        if not nxt:
            break
        states = nxt
        total = ChartExpr.zero(n)
        for ff, gg, factor in states:
            total = total + ff * gg * factor
        out.coeffs[level] = total
    return out


# -- Wick-type characterization -----------------------------------------------------------


def default_pool(chart, count=6):
    """Deterministic pool of small polynomials used by behavioral checks."""
    from .sampling import Lcg, random_polynomial

    rng = Lcg(1)
    return [random_polynomial(chart.n, rng) for _ in range(count)]


def wick_type_check(data, N, witnesses=None):
    """Structural and behavioral characterization of the Wick type.

    Structural: pi_z r = pi_zbar r = 0, same for the normalization element,
    and the two-form series is of type (1,1).  Behavioral: antiholomorphic
    witnesses multiply from the left and holomorphic witnesses from the
    right pointwise, up to the requested order.  The behavioral half is
    finite-order evidence on polynomial witnesses, not a proof; the
    structural half is exact.
    """
    chart = data.chart
    n = chart.n
    report = Report(title=f"wick type ({chart.name or 'chart'}, {data.kind})")
    for selector in ("pi_z", "pi_zbar"):
        part = weyl.project(data.r, selector)
        report.add(f"structural: {selector} r = 0", part.is_zero(),
                   "" if part.is_zero() else f"offending term: {part.serialize()[:120]}")
    for selector in ("pi_z", "pi_zbar"):
        report.add(f"structural: {selector} s = 0", weyl.project(data.s, selector).is_zero())
    t11 = data.omega.is_type_11()
    report.add("structural: two-form series of type (1,1)", t11)

    if witnesses is None:
        pool = default_pool(chart)
        anti = [ChartExpr.one(n)]
        hol = [ChartExpr.one(n)]
        for k in range(n):
            zb = ChartExpr.variable(n, n + k)
            z = ChartExpr.variable(n, k)
            for d in (1, 2, 3):
                anti.append(zb ** d)
                hol.append(z ** d)
        left_pairs = [(h, g) for h in anti for g in pool[:3]]
        right_pairs = [(f, h) for h in hol for f in pool[:3]]
    else:
        left_pairs, right_pairs = witnesses

    behavioral = (
        ("behavioral: h' * g = h'g for antiholomorphic h'", ("h'", "g"), left_pairs),
        ("behavioral: f * h = fh for holomorphic h", ("f", "h"), right_pairs),
    )
    for name, (left, right), pairs in behavioral:
        ok, detail = True, ""
        for x, y in pairs:
            got = star(data, x, y, N)
            want = NuSeries.from_function(x * y, N)
            if got != want:
                ok = False
                diff = got - want
                bad = next(r for r, c in enumerate(diff.coeffs) if not c.is_zero())
                detail = (
                    f"{left}={x.pretty()}, {right}={y.pretty()}: order {bad} "
                    f"coefficient {diff.coeffs[bad].pretty()}"
                )
                break
        report.add(name, ok, detail)
    report.note = (
        "behavioral checks are finite-order evidence on polynomial witnesses; "
        "the structural conditions are the exact characterization"
    )
    return report


def has_wick_shape(data):
    """pi_z r = pi_zbar r = 0: the structural Wick-type conditions on r."""
    return weyl.project(data.r, "pi_z").is_zero() and weyl.project(data.r, "pi_zbar").is_zero()


def projected_tau(data, f, hol, degree=None):
    """pi_z tau(f) (hol) or pi_zbar tau(f) by the reduced recursion
    x = f + delta_z_inv(nabla_z x + (1/nu) pi_z(x.r)) or its mirror; exact up
    to total degree `degree` (default: the truncation), as for tau.  Part k+1
    reads the parts of degree <= k alone: the half delta_inv raises the
    degree by one, and (1/nu) x_i.r_j with deg r_j >= 2 has degree >= i.

    The gate, a vanishing projection of r, is necessary but not sufficient:
    on the curved charts that projection vanishes for weyl and antiwick data
    too, yet there the reduced recursion does not give the projected Taylor
    series (pinned by a strict xfail in the tests); it does for wick."""
    selector = "pi_z" if hol else "pi_zbar"
    if not weyl.project(data.r, selector).is_zero():
        raise FedosovError(f"reduced recursion requires {selector} r = 0")
    top = _cut_degree(data, degree)
    chart, conn, kind = data.chart, data.conn, data.kind
    nabla_half = weyl.nabla_z if hol else weyl.nabla_zbar
    delta_half_inv = weyl.delta_z_inv if hol else weyl.delta_zbar_inv

    def step(parts):
        k = len(parts) - 1
        prod = WeylElement.zero(chart.n)
        for i, part in enumerate(parts):
            r_part = data.r_parts.get(k + 2 - i)
            if r_part is not None:
                left, right = (part, r_part) if hol else (r_part, part)
                prod = prod + weyl.circ(left, right, kind, chart, trunc=k + 2)
        over = weyl.project(prod, selector).div_nu(1)
        half = nabla_half(parts[k], chart, conn)
        inner = half + over if hol else half - over
        return delta_half_inv(inner.with_truncation(None))

    return _joined(_by_degree([WeylElement.scalar(f, truncation=top)], step, top), top)


def star_via_projections(data, f, g, N):
    """f * g recomputed as sigma((pi_z tau f) . (pi_zbar tau g))."""
    _require_order(data, N)
    tf = projected_tau(data, f, True, 2 * N)
    tg = projected_tau(data, g, False, 2 * N)
    scal = weyl.sigma_circ(tf, tg, data.kind, data.chart, max_nu=N)
    return weyl.to_nu_series(scal, N)


# -- renormalization and equivalences ---------------------------------------------------


def renormalize_s(data, B):
    """Move a one-form series B between the normalization and the two-form:
    (Omega, s + B x 1) describes the same derivation as (Omega - dB, s)."""
    if B.is_zero():
        return data
    if min(B.forms) < 1:
        raise FedosovError("one-form series must start at nu^1")
    s_new = data.s + B.to_weyl_sym(truncation=data.K)
    omega_new = data.omega - B.d()
    out = FedosovData(data.kind, data.chart, data.K, omega=omega_new, s=s_new,
                      allow_sym_degree_one=True)
    expected = data.r + B.to_weyl(truncation=data.K)
    if out.r != expected:
        raise ContractViolation("renormalized element does not shift by the central one-form")
    return out


def _ad_exp_terms(data, h, x, out_trunc, sign=1):
    """(j, (sign/nu)^j ad(h)^j x / j!) for j = 0..K+1, exact up to total
    degree `out_trunc`, until the first zero term: the terms of
    exp(sign (1/nu) ad(h)) x, a finite sum on the filtration."""
    yield 0, x.truncate(out_trunc)
    term = x
    for j in range(1, data.K + 2):
        term = weyl.ad_over_nu(h, term, data.kind, data.chart, out_trunc).scale(
            GaussianRational.ratio(sign, j)
        )
        if term.is_zero():
            return
        yield j, term


def _bernoulli_series_apply(data, h, y, out_trunc):
    """sum_j (B_j / j!) ((1/nu) ad(h))^j y, a finite sum on the filtration."""
    terms = _ad_exp_terms(data, h, y, out_trunc)
    total = next(terms)[1]
    for j, term in terms:
        b = bernoulli(j)
        if b:
            total = total + term.scale(GaussianRational(b))
    return total


def _exp_ad_sigma(data, h, x, N, sign=1):
    """sigma(exp(+-(1/nu) ad(h)) x) as a series up to order N.

    The nu^N coefficient has total degree 2N, and (1/nu) ad(h) with
    deg h >= 2 never lowers the degree, so only the terms of x of degree
    <= 2N are read."""
    _require_order(data, N)
    total = WeylElement.zero(x.n)
    for _, term in _ad_exp_terms(data, h, x, 2 * N, sign):
        total = total + weyl.sigma(term)
    return weyl.to_nu_series(total, N)


def _extend_over_series(fn, f, N):
    """The nu-linear extension of fn(function, order) -> series to a series
    f up to order N; a function f is passed to fn as it is.  A series
    shorter than N is refused: its missing coefficients are not zero but
    unknown."""
    if not isinstance(f, NuSeries):
        return fn(f, N)
    if f.order < N:
        raise FedosovError("series has too few coefficients for the requested order")
    out = NuSeries.zeros(f.coeffs[0].n, N)
    for a, c in enumerate(f.coeffs[: N + 1]):
        if c.is_zero():
            continue
        for r, v in enumerate(fn(c, N - a).coeffs):
            out.coeffs[r + a] = out.coeffs[r + a] + v
    return out


class EquivalenceTransform:
    """A_h f = sigma(exp((1/nu) ad(h)) tau(f)) between two data sets."""

    def __init__(self, data, data_prime, h):
        self.data = data
        self.data_prime = data_prime
        self.h = h

    def apply(self, f, N):
        return _extend_over_series(
            lambda c, M: _exp_ad_sigma(self.data, self.h, tau(self.data, c, 2 * M), M, sign=1), f, N)

    def apply_inverse(self, f, N):
        return _extend_over_series(
            lambda c, M: _exp_ad_sigma(self.data, self.h, tau(self.data_prime, c, 2 * M), M, sign=-1),
            f, N)


def equivalence_A_h(data, data_prime, C, N):
    """Equivalence transformation between two data sets with cohomologous
    two-form series, built from the Bernoulli-weighted recursion for h.
    Part k+1 of h reads its parts of degree <= k alone: delta_inv raises the
    degree by one, and (1/nu) ad(x) with deg x >= 2 does not lower it; with
    deg h >= 3 (C starts at nu^1) and deg(r' - r) >= 2, a part of degree k of
    the Bernoulli series reads only parts h_i with i <= k."""
    if data.kind != data_prime.kind or data.chart is not data_prime.chart or data.K != data_prime.K:
        raise FedosovError("equivalence requires matching kind, chart and truncation")
    if C.min_power() is not None and C.min_power() < 1:
        raise FedosovError("one-form series must start at nu^1")
    if C.d() != data.omega - data_prime.omega:
        raise FedosovError("dC must equal the difference of the two-form series")
    K = data.K
    chart, conn, kind = data.chart, data.conn, data.kind
    c_el = C.to_weyl_sym(truncation=K)
    rdiff = data_prime.r - data.r

    def step(parts):
        k = len(parts) - 1
        h = _joined(parts, k)
        inner = weyl.nabla(parts[k], chart, conn) - weyl.ad_over_nu(data.r, h, kind, chart, k)
        inner = inner - _bernoulli_series_apply(data, h, rdiff, k)
        return c_el.component(k + 1) + weyl.delta_inv(inner.component(k).with_truncation(None))

    h = _joined(_by_degree([WeylElement.zero(chart.n, K)], step, K), K)
    transform = EquivalenceTransform(data, data_prime, h)

    n = chart.n
    z = ChartExpr.variable(n, 0)
    zb = ChartExpr.variable(n, n)
    check_N = min(N, (data.K - 2) // 2)
    for f, g in ((z, zb), (zb, z * zb)):
        lhs = transform.apply(star(data, f, g, check_N), check_N)
        rhs = star_series(data_prime, transform.apply(f, check_N), transform.apply(g, check_N), check_N)
        if lhs != rhs:
            raise ContractViolation("equivalence transformation fails to intertwine the products")
        back = transform.apply_inverse(transform.apply(f, check_N), check_N)
        if back != NuSeries.from_function(f, check_N):
            raise ContractViolation("equivalence transformation inverse fails")
    return transform


def parity_transport(data):
    """The mirror data with nu -> -nu inputs; its product is the opposite
    product with reversed parity.  Wick data transports to anti-Wick and back."""
    kind = {"wick": "antiwick", "antiwick": "wick", "weyl": "weyl"}[data.kind]
    out = FedosovData(
        kind,
        data.chart,
        data.K,
        omega=data.omega.parity(),
        s=weyl.parity_P(data.s),
        allow_sym_degree_one=True,
    )
    if out.r != weyl.parity_P(data.r):
        raise ContractViolation("parity transport does not flip the connection element")
    return out


# -- Karabegov form -------------------------------------------------------------------


def _poly_antiderivative(poly_expr, var):
    """Antiderivative of a polynomial expression in one coordinate."""
    if not poly_expr.is_polynomial():
        raise FedosovError("two-form coefficients must be polynomial to integrate")
    num = poly_expr.num
    from .expr import ChartPolynomial

    out = {}
    for exp, coeff in num.terms.items():
        new = list(exp)
        new[var] += 1
        out[tuple(new)] = coeff / GaussianRational(new[var])
    return ChartExpr(ChartPolynomial(num.nvars, out), base=poly_expr.base)


def _solve_gradient(chart, w, offset):
    """u with d u / d x_{offset+l} = w_l for a closed collection of polynomial
    coefficients: offset 0 solves along Z_l, offset n along Zb_l."""
    n = chart.n
    u = ChartExpr.zero(n)
    for l in range(n):
        target = w.get(l, ChartExpr.zero(n)) - u.differentiate(offset + l)
        if target.is_zero():
            continue
        u = u + _poly_antiderivative(target, offset + l)
    for l in range(n):
        if u.differentiate(offset + l) != w.get(l, ChartExpr.zero(n)):
            raise FedosovError("two-form series admits no polynomial potential gradient")
    return u


def _omega_scalar_ratio(chart, form):
    """The constant c with form = c * omega, or None.

    Reduced values c * w and w share their denominator, so c is the ratio
    of the numerators' leading coefficients.  No quotient is formed: val / ref
    stays unreduced when the numerators hold a factor outside the base."""
    omega = chart.omega
    for key, val in form.terms.items():
        ref = omega.terms.get(key)
        if ref is None or val.den != ref.den:
            return None
        c = val.num.leading()[1] / ref.num.leading()[1]
        return c if form == omega.scale(c) else None
    return None


def karabegov_form(data, N, pool=None):
    """The characterizing two-form series of a Wick-type product.

    Two computations must agree: the closed form omega + Omega, and the
    extraction through local functions u_k with u_k * z^l - z^l * u_k =
    -nu delta^l_k and f * u_k = f u_k + nu Z_k(f) (for the anti-Wick kind
    the mirrored relations with ub_l).  Disagreement raises, signalling a
    construction bug.
    """
    chart = data.chart
    n = chart.n
    if chart.potential_gradient is None:
        raise FedosovError("chart has no potential gradient")
    if not (has_wick_shape(data) and data.omega.is_type_11()):
        raise FedosovError("data does not satisfy the structural Wick-type conditions")

    closed = FormSeries(n, [(0, chart.omega)] + data.omega.items())

    # the anti-Wick kind mirrors the Wick one: u_k becomes ub_k, whose own
    # coordinate zb_k sits at offset n, and the relations change sign
    if data.kind == "wick":
        base, offset, sign = list(chart.potential_gradient), 0, 1
    elif data.kind == "antiwick":
        base, offset, sign = [-(g.conjugate()) for g in chart.potential_gradient], n, -1
    else:
        raise FedosovError("the characterizing form applies to wick and antiwick kinds")
    bar = "b" if offset else ""

    # gradients of the two-form potentials, one series per coordinate
    u = [NuSeries.from_function(base[k], N) for k in range(n)]
    for power, form in data.omega.items():
        if power > N:
            continue
        ratio = _omega_scalar_ratio(chart, form)
        if ratio is not None:
            for k in range(n):
                u[k].coeffs[power] = u[k].coeffs[power] + base[k].scale(ratio)
            continue
        for k in range(n):
            inserted = form.interior(offset + k)
            w = {l: inserted[1 << (n - offset + l)].scale(sign) for l in range(n)}
            u[k].coeffs[power] = u[k].coeffs[power] + _solve_gradient(chart, w, n - offset)

    # the defining star-product relations
    pool = pool if pool is not None else default_pool(chart, count=3)
    for k in range(n):
        for l in range(n):
            zl = ChartExpr.variable(n, offset + l)
            comm = star_series(data, u[k], zl, N) - star_series(data, zl, u[k], N)
            want = NuSeries.zeros(n, N)
            if k == l and N >= 1:
                want.coeffs[1] = ChartExpr.constant(n, -sign)
            if comm != want:
                raise ContractViolation(
                    f"u{bar}_{k+1} fails the commutation relation with z{bar}{l+1}"
                )
        for f in pool:
            lhs = star_series(data, f, u[k], N)
            rhs = NuSeries.zeros(n, N)
            for p, c in enumerate(u[k].coeffs):
                if not c.is_zero():
                    rhs.coeffs[p] = rhs.coeffs[p] + f * c
            df = f.differentiate(offset + k)
            if not df.is_zero() and N >= 1:
                rhs.coeffs[1] = rhs.coeffs[1] + df.scale(sign)
            if lhs != rhs:
                raise ContractViolation(
                    f"u{bar}_{k+1} fails f * u{bar} = f u{bar} {'+' if sign > 0 else '-'} "
                    f"nu Z{bar}(f) on f={f.pretty()}"
                )

    # assembly of the extracted form: the (k, l) entry is Zb_l u_k, or Z_k ub_l
    extracted_entries = []
    for power in range(N + 1):
        hm = {}
        for k in range(n):
            for l in range(n):
                idx, var = (l, k) if offset else (k, n + l)
                c = u[idx].coeffs[power].differentiate(var)
                if not c.is_zero():
                    hm[(k, l)] = c
        extracted_entries.append((power, TwoForm(n, hm=hm)))
    extracted = FormSeries(n, extracted_entries)

    closed_truncated = FormSeries(n, [(p, f) for p, f in closed.items() if p <= N])
    if extracted != closed_truncated:
        raise ContractViolation(
            "extracted characterizing form disagrees with omega + Omega"
        )
    return closed_truncated


# -- Hermiticity ---------------------------------------------------------------------


def hermitian_check(data, N):
    """Hermiticity: conj(Omega) = Omega iff conj(f*g) = conj(g) * conj(f)."""
    chart = data.chart
    n = chart.n
    report = Report(title=f"hermitian ({chart.name or 'chart'}, {data.kind})")
    structural = data.omega.conjugate() == data.omega
    report.add("structural: conj(Omega) = Omega", structural,
               "" if structural else data.omega.render())
    z = ChartExpr.variable(n, 0)
    zb = ChartExpr.variable(n, n)
    behavioral = True
    detail = ""
    for f, g in ((z, zb), (zb, z), (z * zb, z), (z + zb, z * zb)):
        lhs = weyl.conj_C(star(data, f, g, N))
        rhs = star(data, g.conjugate(), f.conjugate(), N)
        if lhs != rhs:
            behavioral = False
            detail = f"f={f.pretty()}, g={g.pretty()}"
            break
    report.add("behavioral: conj(f*g) = conj(g) * conj(f)", behavioral, detail)
    report.add("criteria agree", structural == behavioral)
    return report


# -- Vey-type differential order --------------------------------------------------------


def _nested_commutator_value(op, mults, f0):
    """[[..[op, m_{p1}]..], m_{pk}](f0) by inclusion-exclusion over subsets."""
    if not mults:
        return op(f0)
    first, rest = mults[0], mults[1:]
    inner = lambda x: op(first * x) - first * op(x)
    return _nested_commutator_value(inner, rest, f0)


def vey_order_check(data, r_max):
    """Differential order of the star-product coefficients.

    For each order r the operator f -> C_r(f, g) must be differential of
    order <= r, which holds exactly when every (r+1)-fold nested commutator
    with multiplication operators vanishes; same for the second argument.
    """
    from itertools import combinations_with_replacement

    chart = data.chart
    n = chart.n
    z = ChartExpr.variable(n, 0)
    zb = ChartExpr.variable(n, n)
    g_pool = [z, zb, z * z * zb]
    mult_pool = [z, zb]
    eval_pool = [ChartExpr.one(n), z, zb, z * zb]
    report = Report(title=f"vey order ({chart.name or 'chart'}, {data.kind})")
    for r in range(1, r_max + 1):
        ok_first = True
        ok_second = True
        detail = ""
        for g in g_pool:
            def c_r_first(x, g=g, r=r):
                return star(data, x, g, r)[r]

            def c_r_second(x, g=g, r=r):
                return star(data, g, x, r)[r]

            for mults in combinations_with_replacement(mult_pool, r + 1):
                for f0 in eval_pool:
                    if ok_first and not _nested_commutator_value(c_r_first, list(mults), f0).is_zero():
                        ok_first = False
                        detail = f"r={r}, g={g.pretty()}"
                    if ok_second and not _nested_commutator_value(c_r_second, list(mults), f0).is_zero():
                        ok_second = False
                        detail = f"r={r}, g={g.pretty()} (second argument)"
        report.add(f"C_{r} has order <= ({r},{r}) in the first argument", ok_first, detail)
        report.add(f"C_{r} has order <= ({r},{r}) in the second argument", ok_second, detail)
    zero_ok = all(
        star(data, f, ChartExpr.one(chart.n), r_max).coeffs[r].is_zero()
        for f in g_pool
        for r in range(1, r_max + 1)
    )
    report.add("C_r(f, 1) = 0 for r >= 1", zero_ok)
    return report


# -- separation of variables --------------------------------------------------------------


def _reindexed(data, f, g, N):
    """gf + sum (i lambda)^l C_l(g, f) as a series in lambda."""
    coeffs = []
    scale = GaussianRational(1)
    for c in star(data, g, f, N).coeffs:
        coeffs.append(c.scale(scale))
        scale = scale * GR_I
    return NuSeries(coeffs, param="lambda")


def separation_product(data, f, g, N):
    """The reindexed product f *K g = gf + sum (i lambda)^l C_l(g, f).

    A series in the real parameter lambda; holomorphic functions multiply
    pointwise from the left and antiholomorphic ones from the right, which
    is checked on small witnesses.
    """
    out = _reindexed(data, f, g, N)
    n = data.chart.n
    z = ChartExpr.variable(n, 0)
    zb = ChartExpr.variable(n, n)
    for h in (ChartExpr.one(n), z, z * z):
        want = NuSeries.from_function(h * zb, N, param="lambda")
        if _reindexed(data, h, zb, N) != want:
            raise ContractViolation("separation property fails for a holomorphic witness")
    for h in (zb, zb * zb):
        want = NuSeries.from_function(z * h, N, param="lambda")
        if _reindexed(data, z, h, N) != want:
            raise ContractViolation("separation property fails for an antiholomorphic witness")
    return out


# -- transport to the Weyl-kind product ----------------------------------------------------


def weyl_transport(data):
    """The Weyl-kind data induced by the fibrewise equivalence.

    S^{-1} r carries the Wick data to a Weyl-kind set with the two-form
    shifted by the Ricci form; the induced map f -> sigma(S tau'(f))
    intertwines the two star products.
    """
    if data.kind != "wick":
        raise FedosovError("transport starts from a wick-kind data set")
    chart = data.chart
    r_t = weyl.fib_equiv_S(data.r, chart, "inverse")
    s_t = weyl.delta_inv(r_t).truncate(data.K)
    ricci = data.curv.ricci_form
    omega_t = data.omega + FormSeries(chart.n, [(1, ricci.scale(GR_I))])
    out = FedosovData(
        "weyl", chart, data.K, omega=omega_t, s=s_t,
        allow_sym_degree_one=True,
    )
    if out.r != r_t:
        raise ContractViolation("transported connection element mismatch")
    return out


def weyl_transport_map(data_weyl, f, N):
    """f -> sigma(S tau'(f)) for the transported Weyl-kind data."""

    def transported(c, M):
        # sigma at nu^M reads total degree <= 2M, and S keeps the degree
        t = weyl.fib_equiv_S(tau(data_weyl, c, 2 * M), data_weyl.chart, "forward")
        return weyl.to_nu_series(weyl.sigma(t), M)

    return _extend_over_series(transported, f, N)
