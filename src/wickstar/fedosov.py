"""The Fedosov engine on a chart.

Builds the connection element r of the chosen fibrewise product from the
data (two-form series, normalization element, truncation degree), the flat
derivation D = -delta + nabla - (1/nu) ad(r), the associated Taylor series
tau(f), and the star product f * g = sigma(tau(f) . tau(g)).  On top of
that sit the verification operations: the Wick-type characterization, the
reduced holomorphic recursions, renormalization and equivalence
transformations, parity transport, the Karabegov form, Hermiticity,
differential order and the separation-of-variables reindexing.

All recursions run degree-by-degree on the total-degree filtration, which
makes every step finitary and exact; a generic fixed-point iterator with a
stationarity contract is provided for cross-checks and for the maps whose
degree-wise expansion is unwieldy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import weyl
from .chart import FormSeries, TwoForm
from .expr import ChartExpr, ExprError, GaussianRational
from .weyl import NuSeries, WeylElement

GR_I = GaussianRational(0, 1)


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

    The caller asserts that the map raises the lowest differing total
    degree by at least one; then iteration from any start is stationary
    within max_degree + 1 steps.  Non-stationarity raises, and a map that
    is stationary immediately is probed at a second point to detect
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


class FedosovData:
    """Product kind, chart, input data and the computed connection element.

    Immutable after construction apart from `tau_cache`, a memo table from
    serialized functions to a pair (parts, views): the tuple of homogeneous
    parts of tau(f) computed so far, of degree 0..len(parts)-1, and a dict
    from each requested degree to the series cut there.  A request for a
    higher degree extends the parts and stores a longer tuple; concurrent
    duplicate recomputation is harmless because entries are value
    determined.
    """

    def __init__(self, kind, chart, K, omega=None, s=None,
                 allow_sym_degree_one=False, verify=True):
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
        self.r_parts = {}
        self.r = self._compute_r()
        if verify:
            self.verify_r()

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

    def _sources(self):
        """Homogeneous central sources: curvature at degree 2, forms at 2i."""
        out = {}
        R = self.curv.curvature_element
        if not R.is_zero():
            out[2] = R.truncate(self.K)
        for power, form in self.omega.items():
            deg = 2 * power
            if deg > self.K:
                continue
            el = form.to_weyl(nu_power=power, truncation=self.K)
            out[deg] = out.get(deg, WeylElement.zero(self.chart.n, self.K)) + el
        return out

    def _compute_r(self):
        """Degree-wise expansion of r = delta(s) + delta_inv(nabla r
        - (1/nu) r.r + R + 1 x Omega); each homogeneous component is
        produced exactly once."""
        chart, conn, kind, K = self.chart, self.conn, self.kind, self.K
        n = chart.n
        sources = self._sources()
        s_parts = {}
        for (p, sym, asym), coeff in self.s.terms.items():
            deg = sum(sym) + 2 * p
            s_parts.setdefault(deg, WeylElement(n, {}, self.K))._add(p, sym, asym, coeff)
        parts = {}
        for k in range(2, K + 1):
            bracket = sources.get(k - 1, WeylElement.zero(n, K))
            prev = parts.get(k - 1)
            if prev is not None and not prev.is_zero():
                bracket = bracket + weyl.nabla(prev, chart, conn)
            quad = WeylElement.zero(n)
            for a in range(2, k):
                b = k + 1 - a
                if b < 2 or b >= k:
                    continue
                pa, pb = parts.get(a), parts.get(b)
                if pa is None or pb is None or pa.is_zero() or pb.is_zero():
                    continue
                quad = quad + weyl.circ(pa, pb, kind, chart, trunc=k + 1)
            if not quad.is_zero():
                bracket = bracket - quad.div_nu(1)
            comp = weyl.delta_inv(bracket)
            stail = s_parts.get(k + 1)
            if stail is not None:
                comp = comp + weyl.delta(stail)
            comp = comp.truncate(K)
            if not comp.is_zero():
                parts[k] = comp
        self.r_parts = parts
        total = WeylElement.zero(n, K)
        for comp in parts.values():
            total = total + comp
        return total

    def verify_r(self):
        """Exact check of the two defining equations up to the truncation."""
        K = self.K
        if weyl.delta_inv(self.r).truncate(K) != self.s:
            raise ContractViolation("connection element fails delta_inv r = s")
        lhs = weyl.delta(self.r).truncate(K - 1)
        rhs = weyl.nabla(self.r, self.chart, self.conn)
        rhs = rhs - weyl.circ_over_nu(self.r, self.r, self.kind, self.chart, K - 1)
        rhs = rhs + self.curv.curvature_element.truncate(K - 1)
        rhs = rhs + self.omega.to_weyl(truncation=K - 1)
        if lhs != rhs.truncate(K - 1):
            raise ContractViolation("connection element fails its defining equation")
        mn = self.r.min_deg() if not self.r.is_zero() else None
        if mn is not None and mn < 2:
            raise ContractViolation("connection element has total degree < 2")

    def with_data(self, omega=None, s=None, allow_sym_degree_one=False, kind=None, verify=True):
        return FedosovData(
            kind or self.kind,
            self.chart,
            self.K,
            omega=self.omega if omega is None else omega,
            s=self.s if s is None else s,
            allow_sym_degree_one=allow_sym_degree_one,
            verify=verify,
        )


def compute_r_via_fixed_point(data, seed=None):
    """The connection element by plain fixed-point iteration from any seed.

    Used to witness uniqueness: every seed must reproduce the element the
    degree-wise recursion computed.
    """
    chart, conn, kind, K = data.chart, data.conn, data.kind, data.K
    source = data.curv.curvature_element.truncate(K) + data.omega.to_weyl(truncation=K)
    ds = weyl.delta(data.s)

    def step(a):
        bracket = weyl.nabla(a, chart, conn) + source.truncate(K - 1)
        bracket = bracket - weyl.circ_over_nu(a, a, kind, chart, K - 1)
        # lift the bracket's truncation before inverting: delta_inv raises
        # the total degree by one, up to K
        return (ds + weyl.delta_inv(bracket.with_truncation(None))).truncate(K)

    start = seed.truncate(K) if seed is not None else WeylElement.zero(chart.n, K)
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


def tau(data, f, degree=None):
    """The unique D-flat element with scalar part f, by the degree recursion,
    up to total degree `degree` (default: the truncation K).

    The part of degree k+1 is built from the parts of degree <= k alone
    (nabla keeps the degree, (1/nu) ad(r) with deg r >= 2 does not lower it,
    delta_inv raises it by one), so the series cut at `degree` is exact up
    to that degree.  The parts are cached per function and a request for a
    higher degree resumes the recursion from the last one."""
    K = data.K
    degree = _cut_degree(data, degree)
    key = f.serialize()
    entry = data.tau_cache.get(key)
    if entry is None:
        entry = ((WeylElement.scalar(f, truncation=K),), {})
        data.tau_cache[key] = entry
    parts, views = entry
    hit = views.get(degree)
    if hit is not None:
        return hit
    if len(parts) <= degree:
        chart, conn, kind = data.chart, data.conn, data.kind
        parts = list(parts)
        for k in range(len(parts) - 1, degree):
            bracket = weyl.nabla(parts[k], chart, conn)
            for l in range(k):
                rp = data.r_parts.get(l + 2)
                tp = parts[k - l]
                if rp is None or tp.is_zero():
                    continue
                bracket = bracket - weyl.ad_over_nu(rp, tp, kind, chart, None)
            parts.append(weyl.delta_inv(bracket).truncate(K))
        data.tau_cache[key] = (tuple(parts), views)
    terms = {}
    for part in parts[: degree + 1]:
        terms.update(part.terms)
    return views.setdefault(degree, WeylElement(data.chart.n, terms, degree))


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
    # sigma reads the terms of total degree <= 2N of either factor
    tf = tau(data, f, 2 * N)
    tg = tau(data, g, 2 * N)
    scal = weyl.sigma_circ(tf, tg, data.kind, data.chart, max_nu=N)
    return weyl.to_nu_series(scal, N)


def _coerce_series(x, order):
    if isinstance(x, NuSeries):
        if x.order < order:
            raise FedosovError("series has too few coefficients for the requested order")
        return x
    return NuSeries.from_function(x, order)


def star_series(data, F, G, N):
    """The bilinear extension of the star product to truncated series."""
    F = _coerce_series(F, 0 if isinstance(F, NuSeries) else N)
    G = _coerce_series(G, 0 if isinstance(G, NuSeries) else N)
    n = data.chart.n
    out = NuSeries.zeros(n, N)
    for a in range(min(len(F.coeffs), N + 1)):
        if F[a].is_zero():
            continue
        for b in range(min(len(G.coeffs), N + 1 - a)):
            if G[b].is_zero():
                continue
            sub = star(data, F[a], G[b], N - a - b)
            for r, c in enumerate(sub.coeffs):
                out.coeffs[r + a + b] = out.coeffs[r + a + b] + c
    return out


def _derivative_table(chart, expr, offsets, max_order, tag):
    """All iterated derivatives of expr along the given coordinate block,
    indexed by multi-index and divided by its factorial; memoized."""
    memo = chart.contraction_memo(("cf_derivs", tag))
    key = expr.serialize()
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = chart.n
    table = {(0,) * n: expr}
    frontier = {(0,) * n: expr}
    for _ in range(max_order):
        nxt = {}
        for alpha, val in frontier.items():
            for j in range(n):
                beta = list(alpha)
                beta[j] += 1
                beta = tuple(beta)
                if beta in table or beta in nxt:
                    continue
                d = val.differentiate(offsets[j])
                if d.is_zero():
                    continue
                nxt[beta] = d
        if not nxt:
            break
        table.update(nxt)
        frontier = nxt
    weighted = {}
    for alpha, val in table.items():
        fac = 1
        for e in alpha:
            for m in range(2, e + 1):
                fac *= m
        weighted[alpha] = val.scale(GaussianRational(Fraction(1, fac)))
    memo[key] = weighted
    return weighted


def closed_form_flat(chart, f, g, kind, N):
    """The explicit exponential formulas on a flat chart; the independent
    oracle for the Fedosov product there."""
    if kind not in ("wick", "antiwick"):
        raise FedosovError("closed form exists for the wick and antiwick kinds")
    if not chart.is_flat():
        raise FedosovError("closed-form product requires a flat chart")
    n = chart.n
    coupling = GaussianRational(0, -2) if kind == "wick" else GaussianRational(0, 2)
    diagonal = all(
        chart.inverse_metric[k][l].is_zero()
        for k in range(n) for l in range(n) if k != l
    )
    out = NuSeries.zeros(n, N)
    if diagonal:
        # sum over multi-indices: coupling^|a| * prod g^{kk}^{a_k} / a! *
        # (d^a f)(d^a-bar g); the 1/a! tables are cached per function
        hol = tuple(range(n))
        ahol = tuple(range(n, 2 * n))
        if kind == "wick":
            tf = _derivative_table(chart, f, hol, N, "z")
            tg = _derivative_table(chart, g, ahol, N, "zb")
        else:
            tf = _derivative_table(chart, f, ahol, N, "zb")
            tg = _derivative_table(chart, g, hol, N, "z")
        weights = chart.contraction_memo(("cf_weights", kind))
        diag = [chart.inverse_metric[k][k].constant_value() for k in range(n)]
        for alpha, df in tf.items():
            order = sum(alpha)
            if order > N:
                continue
            dg = tg.get(alpha)
            if dg is None:
                continue
            factor = weights.get(alpha)
            if factor is None:
                factor = coupling ** order
                for k, e in enumerate(alpha):
                    factor = factor * diag[k] ** e
                # undo one of the two 1/alpha! weights: the formula carries
                # a single multinomial weight over ordered index sequences
                fac = 1
                for e in alpha:
                    for m in range(2, e + 1):
                        fac *= m
                factor = factor * GaussianRational(fac)
                weights[alpha] = factor
            out.coeffs[order] = out.coeffs[order] + (df * dg).scale(factor)
        return out
    # general constant metric: iterate the contraction states directly
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
                        GaussianRational(Fraction(1, level)) * coupling
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


def default_pool(chart, count=6, seed=1, max_degree=3):
    """Deterministic pool of small polynomials used by behavioral checks."""
    from .sampling import Lcg, random_polynomial

    rng = Lcg(seed)
    return [random_polynomial(chart.n, rng, max_degree=max_degree) for _ in range(count)]


def wick_type_check(data, N, witnesses=None, pool=None):
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
        pool = pool if pool is not None else default_pool(chart)
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


def _projected_tau(data, f, hol, degree=None):
    """pi_z tau(f) (hol) or pi_zbar tau(f) by the reduced recursion; exact
    up to total degree `degree` (default: the truncation), as for tau.

    The gate, a vanishing projection of r, is necessary but not sufficient:
    on the curved charts that projection vanishes for weyl and antiwick data
    too, yet there the reduced recursion does not give the projected Taylor
    series (pinned by a strict xfail in the tests); it does for wick."""
    selector = "pi_z" if hol else "pi_zbar"
    if not weyl.project(data.r, selector).is_zero():
        raise FedosovError(f"reduced recursion requires {selector} r = 0")
    top = _cut_degree(data, degree)
    chart, conn, kind = data.chart, data.conn, data.kind
    f0 = WeylElement.scalar(f, truncation=top)
    nabla_half = weyl.nabla_z if hol else weyl.nabla_zbar
    delta_half_inv = weyl.delta_z_inv if hol else weyl.delta_zbar_inv

    def step(a):
        left, right = (a, data.r) if hol else (data.r, a)
        prod = weyl.circ(left, right, kind, chart, trunc=top + 1)
        over = weyl.project(prod, selector).div_nu(1).truncate(top - 1)
        half = nabla_half(a, chart, conn).truncate(top - 1)
        inner = half + over if hol else half - over
        return (f0 + delta_half_inv(inner.with_truncation(None))).truncate(top)

    return fixed_point(step, f0, top)


def pi_z_tau_fast(data, f):
    """pi_z tau(f) by the reduced holomorphic recursion (needs pi_z r = 0)."""
    return _projected_tau(data, f, True)


def pi_zbar_tau_fast(data, f):
    """pi_zbar tau(f) by the mirror reduced recursion (needs pi_zbar r = 0)."""
    return _projected_tau(data, f, False)


def star_via_projections(data, f, g, N):
    """f * g recomputed as sigma((pi_z tau f) . (pi_zbar tau g))."""
    _require_order(data, N)
    tf = _projected_tau(data, f, True, 2 * N)
    tg = _projected_tau(data, g, False, 2 * N)
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
    out = data.with_data(omega=omega_new, s=s_new, allow_sym_degree_one=True)
    expected = data.r + B.to_weyl(truncation=data.K)
    if out.r != expected:
        raise ContractViolation("renormalized element does not shift by the central one-form")
    return out


def _bernoulli_series_apply(data, h, y, out_trunc):
    """sum_j (B_j / j!) ((1/nu) ad(h))^j y, a finite sum on the filtration."""
    total = y.truncate(out_trunc)
    term = y
    j = 0
    while not term.is_zero() and j <= data.K:
        j += 1
        term = weyl.ad_over_nu(h, term, data.kind, data.chart, out_trunc).scale(
            GaussianRational(Fraction(1, j))
        )
        if term.is_zero():
            break
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
    out_trunc = 2 * N
    total = weyl.sigma(x.truncate(out_trunc))
    term = x
    j = 0
    while not term.is_zero() and j <= data.K:
        j += 1
        term = weyl.ad_over_nu(h, term, data.kind, data.chart, out_trunc).scale(
            GaussianRational(Fraction(sign, j))
        )
        total = total + weyl.sigma(term)
    return weyl.to_nu_series(total, N)


def _extend_over_series(fn, f, N):
    """The nu-linear extension of fn(function, order) -> series to a series f."""
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
        if isinstance(f, NuSeries):
            return _extend_over_series(self.apply, f, N)
        return _exp_ad_sigma(self.data, self.h, tau(self.data, f, 2 * N), N, sign=1)

    def apply_inverse(self, f, N):
        if isinstance(f, NuSeries):
            return _extend_over_series(self.apply_inverse, f, N)
        return _exp_ad_sigma(self.data, self.h, tau(self.data_prime, f, 2 * N), N, sign=-1)


def equivalence_A_h(data, data_prime, C, N, samples=None):
    """Equivalence transformation between two data sets with cohomologous
    two-form series, built from the Bernoulli-weighted recursion for h."""
    if data.kind != data_prime.kind or data.chart is not data_prime.chart or data.K != data_prime.K:
        raise FedosovError("equivalence requires matching kind, chart and truncation")
    if C.d() != data.omega - data_prime.omega:
        raise FedosovError("dC must equal the difference of the two-form series")
    K = data.K
    chart, conn, kind = data.chart, data.conn, data.kind
    c_el = C.to_weyl_sym(truncation=K)
    rdiff = data_prime.r - data.r

    def step(h):
        inner = weyl.nabla(h, chart, conn).truncate(K - 1)
        inner = inner - weyl.ad_over_nu(data.r, h, kind, chart, K - 1)
        inner = inner - _bernoulli_series_apply(data, h, rdiff, K - 1)
        return (c_el + weyl.delta_inv(inner.with_truncation(None))).truncate(K)

    h = fixed_point(step, c_el, K)
    transform = EquivalenceTransform(data, data_prime, h)

    if samples is None:
        n = chart.n
        z = ChartExpr.variable(n, 0)
        zb = ChartExpr.variable(n, n)
        samples = [(z, zb), (zb, z * zb)]
    check_N = min(N, (data.K - 2) // 2)
    for f, g in samples:
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
        verify=False,
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


def hermitian_check(data, N, samples=None):
    """Hermiticity: conj(Omega) = Omega iff conj(f*g) = conj(g) * conj(f)."""
    chart = data.chart
    n = chart.n
    report = Report(title=f"hermitian ({chart.name or 'chart'}, {data.kind})")
    structural = data.omega.conjugate() == data.omega
    report.add("structural: conj(Omega) = Omega", structural,
               "" if structural else data.omega.render())
    if samples is None:
        z = ChartExpr.variable(n, 0)
        zb = ChartExpr.variable(n, n)
        samples = [(z, zb), (zb, z), (z * zb, z), (z + zb, z * zb)]
    behavioral = True
    detail = ""
    for f, g in samples:
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


def vey_order_check(data, r_max, g_pool=None, mult_pool=None, eval_pool=None):
    """Differential order of the star-product coefficients.

    For each order r the operator f -> C_r(f, g) must be differential of
    order <= r, which holds exactly when every (r+1)-fold nested commutator
    with multiplication operators vanishes; same for the second argument.
    """
    from itertools import combinations_with_replacement

    chart = data.chart
    n = chart.n
    if g_pool is None:
        z = ChartExpr.variable(n, 0)
        zb = ChartExpr.variable(n, n)
        g_pool = [z, zb, z * z * zb]
    if mult_pool is None:
        mult_pool = [ChartExpr.variable(n, 0), ChartExpr.variable(n, n)]
    if eval_pool is None:
        z = ChartExpr.variable(n, 0)
        zb = ChartExpr.variable(n, n)
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


def separation_product(data, f, g, N, verify=True):
    """The reindexed product f *K g = gf + sum (i lambda)^l C_l(g, f).

    A series in the real parameter lambda; holomorphic functions multiply
    pointwise from the left and antiholomorphic ones from the right, which
    is checked on small witnesses when `verify` is set.
    """
    base = star(data, g, f, N)
    coeffs = []
    scale = GaussianRational(1)
    for l, c in enumerate(base.coeffs):
        coeffs.append(c.scale(scale))
        scale = scale * GR_I
    out = NuSeries(coeffs, param="lambda")
    if verify:
        n = data.chart.n
        z = ChartExpr.variable(n, 0)
        zb = ChartExpr.variable(n, n)
        for h in (ChartExpr.one(n), z, z * z):
            got = separation_product(data, h, zb, N, verify=False)
            want = NuSeries.from_function(h * zb, N, param="lambda")
            if got != want:
                raise ContractViolation("separation property fails for a holomorphic witness")
        for h in (zb, zb * zb):
            got = separation_product(data, z, h, N, verify=False)
            want = NuSeries.from_function(z * h, N, param="lambda")
            if got != want:
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
        allow_sym_degree_one=True, verify=False,
    )
    if out.r != r_t:
        raise ContractViolation("transported connection element mismatch")
    return out


def weyl_transport_map(data_weyl, f, N):
    """f -> sigma(S tau'(f)) for the transported Weyl-kind data."""
    if isinstance(f, NuSeries):
        return _extend_over_series(lambda c, M: weyl_transport_map(data_weyl, c, M), f, N)
    t = tau(data_weyl, f)
    return weyl.to_nu_series(weyl.sigma(weyl.fib_equiv_S(t, data_weyl.chart, "forward")), N)
