"""Command-line front end: star products, verification suites, geometry.

Commands
    star      evaluate f * g on a chart up to a given order
    verify    run named verification suites, emitting a deterministic report
    geometry  print derived geometric objects in canonical form
    describe  summarize a chart document

Exit codes: 0 success, 1 user error or failed verification, 2 internal
contract violation.  All output is deterministic for a fixed command line
(including the seed), which makes the reports suitable for golden files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources

from . import weyl
from .chart import (
    Chart,
    ChartError,
    FormSeries,
    OneForm,
    OneFormSeries,
    load_chart,
    poisson_bracket,
)
from .expr import ChartExpr, ExprError, parse
from .fedosov import (
    ContractViolation,
    FedosovData,
    FedosovError,
    Report,
    compute_r_via_fixed_point,
    fedosov_D,
    has_wick_shape,
    hermitian_check,
    karabegov_form,
    parity_transport,
    pi_z_tau_fast,
    renormalize_s,
    equivalence_A_h,
    star,
    star_series,
    star_via_projections,
    tau,
    weyl_transport,
    weyl_transport_map,
    wick_type_check,
)
from .sampling import Lcg, random_polynomial, random_weyl_element
from .weyl import NuSeries, WeylElement

SUITES = (
    "algebra",
    "geometry",
    "fedosov",
    "wick",
    "karabegov",
    "hermitian",
    "parity",
    "equivalence",
    "all",
)


# the largest series order accepted: the cost grows steeply with the order,
# so an absurd one would run for hours instead of failing
MAX_ORDER = 16
# the largest truncation accepted, the one the largest order implies
MAX_TRUNCATION = 2 * MAX_ORDER + 2


class UserError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a user error (exit 1); exit 2 stays
    reserved for internal contract violations."""

    def error(self, message):
        raise UserError(message)


@dataclass
class RunConfig:
    chart_path: str
    product: str = "wick"
    order: int = 1
    truncation: int | None = None
    seed: int = 0
    fmt: str = "text"

    def __post_init__(self):
        if not 0 <= self.order <= MAX_ORDER:
            raise UserError(f"order {self.order} is outside 0..{MAX_ORDER}")
        if self.truncation is not None and self.truncation > MAX_TRUNCATION:
            raise UserError(f"truncation {self.truncation} exceeds the cap of {MAX_TRUNCATION}")

    @property
    def K(self):
        derived = 2 * self.order + 2
        if self.truncation is None:
            return derived
        if self.truncation < derived:
            raise UserError(
                f"truncation {self.truncation} is below the required {derived}"
            )
        return self.truncation


def resolve_chart(path):
    """A chart document by path, or by bundled name (e.g. `disk`)."""
    import os

    if os.path.exists(path):
        with open(path) as fh:
            return load_chart(fh.read())
    name = path[:-5] if path.endswith(".json") else path
    try:
        text = resources.files(__package__).joinpath(f"charts/{name}.json").read_text()
    except (FileNotFoundError, OSError):
        raise UserError(f"chart {path!r} not found (no such file or bundled chart)")
    return load_chart(text)


# -- verification suites ---------------------------------------------------------


def _suite_algebra(chart, config):
    rep = Report(title="algebra")
    n = chart.n
    rng = Lcg(config.seed).split("algebra")
    exprs = [random_polynomial(n, rng) for _ in range(6)]
    a, b, c = exprs[0], exprs[1], exprs[2]
    rep.add("field: associativity and distributivity",
            (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c)
    nonzero = next((e for e in exprs if not e.is_zero()), ChartExpr.one(n))
    rep.add("field: inverse", nonzero / nonzero == ChartExpr.one(n))
    rep.add("leibniz rule", (a * b).differentiate(0) ==
            a.differentiate(0) * b + a * b.differentiate(0))
    rep.add("mixed partials commute",
            a.differentiate(0).differentiate(n) == a.differentiate(n).differentiate(0))
    rep.add("conjugation is an involutive ring map",
            (a * b).conjugate() == a.conjugate() * b.conjugate()
            and a.conjugate().conjugate() == a)

    K = config.K
    els = [random_weyl_element(chart, rng.split(i), max_degree=min(6, K))
           for i in range(6)]
    x, y, z = els[0], els[1], els[2]
    ok = True
    for kind in weyl.KINDS:
        lhs = weyl.circ(weyl.circ(x, y, kind, chart), z, kind, chart)
        rhs = weyl.circ(x, weyl.circ(y, z, kind, chart), kind, chart)
        ok = ok and lhs == rhs
    rep.add("fibrewise products associative", ok)
    ok = True
    for e in els:
        hodge = weyl.delta(weyl.delta_inv(e)) + weyl.delta_inv(weyl.delta(e)) + weyl.sigma(e)
        ok = ok and hodge == e
        s1 = weyl.delta_z_inv(weyl.delta_z(e)) + weyl.delta_z(weyl.delta_z_inv(e)) + weyl.project(e, "pi_zbar")
        s2 = weyl.delta_zbar_inv(weyl.delta_zbar(e)) + weyl.delta_zbar(weyl.delta_zbar_inv(e)) + weyl.project(e, "pi_z")
        ok = ok and s1 == e and s2 == e
    rep.add("full and split Hodge decompositions", ok)
    ok = True
    for e in els[:3]:
        ok = ok and weyl.parity_P(weyl.parity_P(e)) == e
        ok = ok and weyl.conj_C(weyl.conj_C(e)) == e
    rep.add("parity and conjugation are involutions", ok)
    ok = True
    prod = weyl.circ(x, y, "wick", chart)
    ok = ok and weyl.project(prod, "pi_z") == weyl.project(
        weyl.circ(weyl.project(x, "pi_z"), y, "wick", chart), "pi_z")
    ok = ok and weyl.project(prod, "pi_zbar") == weyl.project(
        weyl.circ(x, weyl.project(y, "pi_zbar"), "wick", chart), "pi_zbar")
    rep.add("holomorphic projections are compatible with the product", ok)
    ok = True
    for e in (x, y):
        back = weyl.fib_equiv_S(weyl.fib_equiv_S(e, chart, "forward"), chart, "inverse")
        ok = ok and back == e
    lhs = weyl.fib_equiv_S(
        weyl.circ(weyl.fib_equiv_S(x, chart), weyl.fib_equiv_S(y, chart), "wick", chart),
        chart, "inverse")
    ok = ok and lhs == weyl.circ(x, y, "weyl", chart)
    rep.add("fibrewise equivalence intertwines wick and weyl products", ok)
    return rep


def _suite_geometry(chart, config):
    rep = Report(title="geometry")
    n = chart.n
    try:
        chart.validate()
        rep.add("chart invariants (hermiticity, inverse, closed forms)", True)
    except ChartError as exc:
        rep.add("chart invariants (hermiticity, inverse, closed forms)", False, str(exc))
    conn = chart.connection
    curv = chart.curvature_data
    R = curv.curvature_element
    rep.add("delta R = 0", weyl.delta(R).is_zero())
    rep.add("nabla R = 0", weyl.nabla(R, chart, conn).is_zero())
    fib = weyl.delta_fib(R, chart)
    rep.add("Delta_fib R = 1 x ricci", fib == curv.ricci_form.to_weyl())
    rep.add("d ricci = 0", curv.ricci_form.is_closed())
    rep.add("d omega = 0", chart.omega.is_closed())
    rng = Lcg(config.seed).split("geometry")
    ok = True
    for i in range(3):
        e = random_weyl_element(chart, rng.split(i), max_degree=6)
        n2 = weyl.nabla(weyl.nabla(e, chart, conn), chart, conn)
        for kind in weyl.KINDS:
            adr = weyl.ad_over_nu(R, e, kind, chart, None)
            ok = ok and (n2 + adr).is_zero()
    rep.add("nabla^2 = -(1/nu) ad(R) for all product kinds", ok)
    rng2 = rng.split("poisson")
    f = random_polynomial(n, rng2)
    g = random_polynomial(n, rng2)
    rep.add("poisson bracket antisymmetric",
            poisson_bracket(chart, f, g) == -poisson_bracket(chart, g, f)
            and poisson_bracket(chart, f, f).is_zero())
    return rep


def _suite_fedosov(chart, config):
    rep = Report(title="fedosov")
    n = chart.n
    K = config.K
    N = config.order
    data = FedosovData(config.product, chart, K)
    rep.add("connection element satisfies its defining equations", True,
            "verified at construction")
    seed2 = weyl.delta_inv(chart.curvature_data.curvature_element.truncate(K))
    same = compute_r_via_fixed_point(data) == data.r and \
        compute_r_via_fixed_point(data, seed=seed2) == data.r
    rep.add("fixed point from two seeds reproduces the recursion", same)
    rng = Lcg(config.seed).split("fedosov")
    ok = True
    for i in range(4):
        e = random_weyl_element(chart, rng.split(i), max_degree=min(6, K - 2), truncation=K).truncate(K)
        dd = fedosov_D(data, fedosov_D(data, e))
        ok = ok and dd.is_zero()
    rep.add("D squares to zero on sampled elements", ok)
    polys = [random_polynomial(n, rng.split("tau%d" % i), max_degree=2, terms=3) for i in range(3)]
    ok_sigma = True
    ok_flat = True
    for f in polys:
        tf = tau(data, f)
        ok_sigma = ok_sigma and weyl.to_nu_series(weyl.sigma(tf), 0)[0] == f
        ok_flat = ok_flat and fedosov_D(data, tf).is_zero()
    rep.add("sigma(tau(f)) = f", ok_sigma)
    rep.add("D tau(f) = 0", ok_flat)
    f, g, h = polys
    tf, tg, th = tau(data, f), tau(data, g), tau(data, h)
    inner1 = weyl.circ(tf, tg, data.kind, chart, trunc=2 * N)
    lhs = weyl.to_nu_series(weyl.sigma_circ(inner1, th, data.kind, chart, N), N)
    inner2 = weyl.circ(tg, th, data.kind, chart, trunc=2 * N)
    rhs = weyl.to_nu_series(weyl.sigma_circ(tf, inner2, data.kind, chart, N), N)
    rep.add("star product associative on a sampled triple", lhs == rhs)
    s1 = star(data, f, g, 1)
    s2 = star(data, g, f, 1)
    rep.add("first-order commutator is the poisson bracket",
            s1.coeffs[1] - s2.coeffs[1] == poisson_bracket(chart, f, g))
    one = ChartExpr.one(n)
    rep.add("unit law", star(data, one, f, N) == NuSeries.from_function(f, N))
    return rep


def _suite_wick(chart, config):
    data = FedosovData(config.product, chart, config.K)
    rep = wick_type_check(data, config.order)
    if has_wick_shape(data):
        n = chart.n
        rng = Lcg(config.seed).split("wick")
        f = random_polynomial(n, rng, max_degree=2, terms=3)
        g = random_polynomial(n, rng, max_degree=2, terms=3)
        fast = pi_z_tau_fast(data, f)
        rep.add("reduced recursion matches the projected Taylor series",
                fast == weyl.project(tau(data, f), "pi_z"))
        rep.add("star recomputed from the projected series",
                star_via_projections(data, f, g, config.order) == star(data, f, g, config.order))
    return rep


def _suite_karabegov(chart, config):
    rep = Report(title="karabegov")
    if chart.potential_gradient is None:
        raise UserError("karabegov suite requires a chart with a potential gradient")
    data = FedosovData(config.product, chart, config.K)
    if not (has_wick_shape(data) and data.omega.is_type_11()):
        rep.add("characterizing form defined (structural Wick-type conditions)", True)
        rep.note = ("the product is not of Wick type, so no characterizing "
                    "form is defined for it; nothing to extract")
        return rep
    try:
        form = karabegov_form(data, config.order)
        rep.add("extraction reproduces omega + Omega", True, form.render())
    except (FedosovError, ContractViolation) as exc:
        rep.add("extraction reproduces omega + Omega", False, str(exc))
    return rep


def _suite_hermitian(chart, config):
    """Asserts the equivalence of the two Hermiticity criteria on Wick-type
    data (the hypothesis of the criterion); whether the product actually is
    Hermitian is a property of the two-form series and is reported
    informationally.  The behavioral side of a failure first shows at the
    second order, so the check runs at order >= 2."""
    N = max(config.order, 2)
    K = max(config.K, 2 * N + 2)
    data = FedosovData(config.product, chart, K)
    inner = hermitian_check(data, N)
    by_name = {c.name: c.passed for c in inner.checks}
    structural = by_name["structural: conj(Omega) = Omega"]
    behavioral = by_name["behavioral: conj(f*g) = conj(g) * conj(f)"]
    rep = Report(title="hermitian")
    if has_wick_shape(data):
        rep.add("structural and behavioral criteria agree", structural == behavioral)
        rep.note = "product is Hermitian" if structural else \
            "product is not Hermitian (both criteria fail, consistently)"
    else:
        rep.add("criteria evaluated (equivalence asserted only for Wick-type data)", True)
        rep.note = (f"structural: {'holds' if structural else 'fails'}; "
                    f"behavioral to order {N}: {'holds' if behavioral else 'fails'}")
    return rep


def _suite_parity(chart, config):
    rep = Report(title="parity")
    data = FedosovData(config.product, chart, config.K)
    mirror = parity_transport(data)
    rep.add("mirror connection element is the parity image", True,
            "verified at construction")
    n = chart.n
    rng = Lcg(config.seed).split("parity")
    ok = True
    for _ in range(3):
        f = random_polynomial(n, rng, max_degree=2, terms=3)
        g = random_polynomial(n, rng, max_degree=2, terms=3)
        lhs = star(mirror, f, g, config.order)
        rhs = weyl.parity_P(star(data, g, f, config.order))
        ok = ok and lhs == rhs
    rep.add("f *mirror g = P((P g) * (P f)) on samples", ok)
    return rep


def _suite_equivalence(chart, config):
    rep = Report(title="equivalence")
    n = chart.n
    K = config.K
    N = min(config.order, (K - 2) // 2)
    data = FedosovData(config.product, chart, K)
    zb = ChartExpr.variable(n, n)
    B = OneFormSeries(n, [(1, OneForm(n, hol={0: zb}))])
    try:
        shifted = renormalize_s(data, B)
        rep.add("renormalization shifts r by the central one-form", True)
    except ContractViolation as exc:
        rep.add("renormalization shifts r by the central one-form", False, str(exc))
        shifted = None
    if shifted is not None:
        rng = Lcg(config.seed).split("equiv")
        f = random_polynomial(n, rng, max_degree=2, terms=3)
        g = random_polynomial(n, rng, max_degree=2, terms=3)
        rep.add("renormalized star product coincides",
                star(data, f, g, N) == star(shifted, f, g, N))
    mixed_items = []
    sym = [0] * (2 * n)
    sym[0], sym[n] = 2, 1
    mixed_items.append((0, tuple(sym), 0, ChartExpr.one(n)))
    s_mixed = WeylElement.from_terms(n, mixed_items, K)
    data_s = FedosovData(config.product, chart, K, s=s_mixed)
    try:
        transform = equivalence_A_h(data, data_s, OneFormSeries.zero(n), N)
        rep.add("equivalence transformation built and intertwines", True)
        if has_wick_shape(data):
            fpool = [ChartExpr.variable(n, 0), ChartExpr.variable(n, n)]
            ok = all(transform.apply(f, N) == NuSeries.from_function(f, N) for f in fpool)
            rep.add("normalization independence: the transformation is the identity", ok)
    except (ContractViolation, FedosovError) as exc:
        rep.add("equivalence transformation built and intertwines", False, str(exc))
    if config.product == "wick":
        try:
            dW = weyl_transport(data)
            rng = Lcg(config.seed).split("transport")
            f = random_polynomial(n, rng, max_degree=2, terms=2)
            g = random_polynomial(n, rng, max_degree=2, terms=2)
            lhs = weyl_transport_map(dW, star(dW, f, g, N), N)
            rhs = star_series(data, weyl_transport_map(dW, f, N),
                              weyl_transport_map(dW, g, N), N)
            rep.add("fibrewise transport intertwines the weyl-kind product", lhs == rhs)
        except (ContractViolation, FedosovError) as exc:
            rep.add("fibrewise transport intertwines the weyl-kind product", False, str(exc))
    return rep


_SUITE_FUNCS = {
    "algebra": _suite_algebra,
    "geometry": _suite_geometry,
    "fedosov": _suite_fedosov,
    "wick": _suite_wick,
    "karabegov": _suite_karabegov,
    "hermitian": _suite_hermitian,
    "parity": _suite_parity,
    "equivalence": _suite_equivalence,
}


# -- commands ------------------------------------------------------------------


def cmd_star(config, f_text, g_text):
    chart = resolve_chart(config.chart_path)
    try:
        f = parse(f_text, chart.n, chart.factor_base)
        g = parse(g_text, chart.n, chart.factor_base)
    except ExprError as exc:
        raise UserError(f"bad expression: {exc}")
    data = FedosovData(config.product, chart, config.K)
    series = star(data, f, g, config.order)
    payload = {
        "schema": 1,
        "command": "star",
        "chart": chart.name,
        "product": config.product,
        "order": config.order,
        "coefficients": [c.pretty() for c in series.coeffs],
    }
    if config.fmt == "json":
        return json.dumps(payload, indent=2), 0
    return "\n".join(series.render_lines()), 0


def cmd_verify(config, suite):
    if suite not in SUITES:
        raise UserError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    chart = resolve_chart(config.chart_path)
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    if chart.potential_gradient is None and "karabegov" in names and suite == "all":
        names.remove("karabegov")
    reports = []
    for name in names:
        reports.append((name, _SUITE_FUNCS[name](chart, config)))
    all_passed = all(rep.passed for _, rep in reports)
    payload = {
        "schema": 1,
        "command": "verify",
        "chart": chart.name,
        "product": config.product,
        "order": config.order,
        "seed": config.seed,
        "passed": all_passed,
        "suites": [
            {
                "suite": name,
                "passed": rep.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in rep.checks
                ],
                "note": rep.note,
            }
            for name, rep in reports
        ],
    }
    if config.fmt == "json":
        return json.dumps(payload, indent=2), 0 if all_passed else 1
    lines = []
    for name, rep in reports:
        lines.append(f"suite {name}: {'PASS' if rep.passed else 'FAIL'}")
        lines.extend("  " + line for line in rep.render_lines())
    lines.append("result: " + ("all checks passed" if all_passed else "FAILURES found"))
    return "\n".join(lines), 0 if all_passed else 1


def cmd_geometry(config, what):
    chart = resolve_chart(config.chart_path)
    n = chart.n
    lines = []
    if what == "christoffel":
        conn = chart.connection
        nonzero = False
        for m in range(n):
            for k in range(n):
                for l in range(n):
                    gamma = conn.christoffel[m][k][l]
                    if not gamma.is_zero():
                        nonzero = True
                        lines.append(f"Gamma[{m+1},{k+1},{l+1}] = {gamma.pretty()}")
        if not nonzero:
            lines.append("Gamma = 0")
    elif what == "curvature":
        R = chart.curvature_data.curvature_element
        lines.append("R = " + (R.serialize() if not R.is_zero() else "0"))
    elif what == "ricci":
        lines.append("ricci = " + chart.curvature_data.ricci_form.render())
    elif what == "omega":
        lines.append("omega = " + chart.omega.render())
        if not chart.omega_series.is_zero():
            lines.append("Omega = " + chart.omega_series.render())
    elif what == "karabegov":
        if chart.potential_gradient is None:
            raise UserError("chart has no potential gradient")
        data = FedosovData(config.product, chart, config.K)
        form = karabegov_form(data, config.order)
        lines.append("K(star) = " + form.render())
    else:
        raise UserError(f"unknown geometry object {what!r}")
    payload = {
        "schema": 1,
        "command": "geometry",
        "chart": chart.name,
        "show": what,
        "lines": lines,
    }
    if config.fmt == "json":
        return json.dumps(payload, indent=2), 0
    return "\n".join(lines), 0


def cmd_describe(config):
    chart = resolve_chart(config.chart_path)
    n = chart.n
    lines = [
        f"chart: {chart.name or config.chart_path}",
        f"dimension: {n}",
        "metric:",
    ]
    for k in range(n):
        for l in range(n):
            lines.append(f"  g[{k+1},{l+1}] = {chart.metric[k][l].pretty()}")
    if chart.factor_base:
        lines.append("factor base: " + ", ".join(b.render() for b in chart.factor_base))
    lines.append("flat: " + ("yes" if chart.is_flat() else "no"))
    lines.append("ricci form: " + chart.curvature_data.ricci_form.render())
    if chart.potential_gradient is not None:
        for k, u in enumerate(chart.potential_gradient):
            lines.append(f"potential gradient u{k+1} = {u.pretty()}")
    lines.append("two-form series: " + chart.omega_series.render())
    payload = {
        "schema": 1,
        "command": "describe",
        "chart": chart.name,
        "lines": lines,
    }
    if config.fmt == "json":
        return json.dumps(payload, indent=2), 0
    return "\n".join(lines), 0


def build_parser():
    parser = _ArgumentParser(
        prog="wickstar",
        description="Exact Fedosov star products of Wick type on pseudo-Kähler charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--chart", required=True, help="chart file or bundled chart name")
        p.add_argument("--product", default="wick", choices=("weyl", "wick", "antiwick"))
        p.add_argument("--order", type=int, default=1, help="series order N (default 1)")
        p.add_argument("--truncation", type=int, default=None,
                       help="total-degree truncation K (default 2N+2; only upward)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))

    p_star = sub.add_parser("star", help="evaluate a star product")
    common(p_star)
    p_star.add_argument("--f", required=True, help="left factor expression")
    p_star.add_argument("--g", required=True, help="right factor expression")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")

    p_geom = sub.add_parser("geometry", help="print derived geometry")
    common(p_geom)
    p_geom.add_argument("--show", required=True,
                        help="christoffel | curvature | ricci | omega | karabegov")

    p_desc = sub.add_parser("describe", help="summarize a chart")
    common(p_desc)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(
            chart_path=args.chart,
            product=args.product,
            order=args.order,
            truncation=args.truncation,
            seed=args.seed,
            fmt=args.fmt,
        )
        if args.command == "star":
            text, code = cmd_star(config, args.f, args.g)
        elif args.command == "verify":
            text, code = cmd_verify(config, args.suite)
        elif args.command == "geometry":
            text, code = cmd_geometry(config, args.show)
        elif args.command == "describe":
            text, code = cmd_describe(config)
        else:  # pragma: no cover
            raise UserError(f"unknown command {args.command!r}")
    except (UserError, ChartError, ExprError, FedosovError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
