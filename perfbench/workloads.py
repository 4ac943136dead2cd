"""Seeded op streams of the three workloads, how each op is run, and how
its result is checked.

A stream is a sequence of rounds, and every round of a stream makes the
same requests up to what the seed draws: chart, product and order of each
star request and the monomials of its factors; chart, product, suite,
order and `--seed` of each verify request.  So a run measures the same mix
whatever number of rounds the host's speed lets it make, and every seed
measures the same work.  The seed draws the rest: the coefficients of the
star factors, and the order of the ops within each round.

Star inputs are random linear combinations over a fixed monomial basis of
each chart.  The star product is bilinear, so the exact result of any such
request is the same combination of the recorded products of basis pairs
(`refs/star.json`).  Verify requests are checked against the recorded
(check, passed) list of their (chart, product, suite, order) and `--seed`
(`refs/verify.json`).  Both tables are written by `record.py`.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import engine  # noqa: F401  (puts the checkout's engine first on sys.path)
import wickstar.chart
import wickstar.cli
import wickstar.expr
import wickstar.fedosov

PRODUCTS = ("weyl", "wick", "antiwick")
CURVED = ("disk", "disk_omega_nu", "disk_omega_inu", "cp1", "cp1_omega_nu")
FLAT = ("c2_flat", "c2_flat_omega20", "c2_flat_skew")
BUNDLED_FLAT = ("c1_flat", "c2_flat", "c2_flat_omega20")
BUNDLED = BUNDLED_FLAT + CURVED
CURVED_PAIRS = tuple((c, p) for c in CURVED for p in PRODUCTS)
BENCH_CHARTS = ("ball2", "c2_flat_skew")
SUITES = ("algebra", "geometry", "fedosov", "wick", "karabegov",
          "hermitian", "parity", "equivalence")
WORKLOADS = ("star_curved", "star_flat", "verify_suites")

# Monomial bases.  `STAR_ORDER` is the order the basis products are recorded
# at; a request of lower order compares with a prefix of them.
CURVED_BASIS = ("1", "z1", "zb1", "z1^2", "z1*zb1", "zb1^2")
BALL2_BASIS = ("1", "z1", "z2", "zb1", "zb2")
FLAT_BASIS = (
    "1", "z1", "zb2", "z1*zb1", "z2^2", "z1*z2*zb1", "zb1^2*zb2",
    "z1^2*zb2^2", "z2^3*zb1", "z1*z2*zb1*zb2^2", "z1^3*zb1^3",
    "z2^2*zb1^2*zb2^2",
)
STAR_ORDER = {"curved": 3, "ball2": 1, "flat": 7}

# Flat charts with a vanishing two-form series, where closed_form_flat is an
# independent oracle for the wick and antiwick products.
CLOSED_FORM_CHARTS = ("c2_flat", "c2_flat_skew")

# the `--seed` values of verify requests; the recorded outcome of a sampled
# check can depend on it
VERIFY_SEEDS = (0, 1, 2, 3)
# verify classes: every suite at orders 1 and 2, except that equivalence
# runs at order 1 only (order 2 costs 20-80 s per op on curved charts)
VERIFY_CLASSES = tuple(
    (suite, order) for order in (1, 2) for suite in SUITES
    if not (suite == "equivalence" and order == 2)
)

# the classes whose curved requests take a second or more; they run once a
# round, the others twice
HEAVY_CLASSES = (("equivalence", 1), ("fedosov", 2), ("parity", 2), ("wick", 2))
SECOND_PASS_SHIFT = 9


def chart_family(chart):
    if chart == "ball2":
        return "ball2"
    return "flat" if chart in FLAT else "curved"


def basis(chart):
    return {"curved": CURVED_BASIS, "ball2": BALL2_BASIS, "flat": FLAT_BASIS}[
        chart_family(chart)]


def _fraction_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def coefficient_text(re, im):
    """A Gaussian rational in the chart expression grammar."""
    return f"({_fraction_text(re)} + ({_fraction_text(im)})*i)"


def poly_text(chart, terms):
    mons = basis(chart)
    return " + ".join(f"{coefficient_text(re, im)}*{mons[k]}" for k, re, im in terms)


@dataclass(frozen=True)
class StarOp:
    """One `wickstar star` request: terms are (basis index, re, im)."""

    chart: str
    product: str
    order: int
    f: tuple
    g: tuple

    @property
    def f_text(self):
        return poly_text(self.chart, self.f)

    @property
    def g_text(self):
        return poly_text(self.chart, self.g)

    @property
    def key(self):
        return (self.chart, self.product, self.order)


@dataclass(frozen=True)
class VerifyOp:
    """One `wickstar verify` request."""

    chart: str
    product: str
    suite: str
    order: int
    seed: int

    @property
    def argv(self):
        return ["verify", "--chart", self.chart, "--product", self.product,
                "--suite", self.suite, "--order", str(self.order),
                "--seed", str(self.seed)]

    @property
    def key(self):
        return (self.chart, self.product, self.suite, self.order)


# -- input generation ------------------------------------------------------------


def _coefficient(rng):
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if re or im:
            return re, im


def support(chart, slot, side):
    """Basis indices of one factor of a request.  The support is fixed by the
    op's slot in its round, and moves with the slot so that a round uses
    every monomial: the constant and one curved monomial of degree 1 or 2;
    on ball2 the constant and z_k (f) or zb_k (g); six of the twelve flat
    monomials of degree <= 6."""
    family = chart_family(chart)
    if family == "curved":
        return (0, 1 + (slot + 2 * side) % 5)
    if family == "ball2":
        return (0, 1 + slot % 2 + 2 * side)
    return tuple(sorted((slot + side + 2 * t) % len(FLAT_BASIS) for t in range(6)))


def _star_ops(rng, cats):
    ops = []
    for slot, (chart, product, order) in enumerate(cats):
        f, g = (tuple((k, *_coefficient(rng)) for k in support(chart, slot, side))
                for side in (0, 1))
        ops.append(StarOp(chart, product, order, f, g))
    rng.shuffle(ops)
    return ops


def star_curved_round(rng):
    """Every curved chart and product at N=2, two of them at N=3 and ball2
    with the wick product at N=1.  A round takes about 13 s on a 2-core VM,
    ball2 a quarter of it."""
    cats = [(c, p, 2) for c in CURVED for p in PRODUCTS]
    cats += [("disk", "weyl", 3), ("cp1", "antiwick", 3), ("ball2", "wick", 1)]
    return _star_ops(rng, cats)


def star_flat_round(rng):
    """Every flat chart and product at each N in 5..7."""
    return _star_ops(rng, [(c, p, n) for c in FLAT for p in PRODUCTS for n in (5, 6, 7)])


def verify_round(rng):
    """Each verify class once on a curved chart, each class but the four
    heavy ones once more on another curved chart, and one request on each
    bundled flat chart.

    The curved (chart, product) pairs and the `--seed` values form a Latin
    design over the classes, so a round holds every curved chart, product
    and suite.  The second pass puts each light class on the pair
    `SECOND_PASS_SHIFT` places further on in the design, where none takes a
    second: it fills the middle of the latency distribution, so that the
    median and the tail fall among many ops of similar cost.  The flat
    charts take one product each and the classes of every fifth curved
    request.  None of this is drawn from the seed: a request's cost
    depends on its pair, class and `--seed` (a curved one takes from 0.03 s
    to 4 s), so drawing them would move the percentiles with the seed.  The
    seed draws the order of the ops.
    """
    def curved(k, suite, order):
        chart, product = CURVED_PAIRS[k % len(CURVED_PAIRS)]
        return VerifyOp(chart, product, suite, order, VERIFY_SEEDS[k % len(VERIFY_SEEDS)])

    ops = [curved(i, *cls) for i, cls in enumerate(VERIFY_CLASSES)]
    ops += [curved(i + SECOND_PASS_SHIFT, *cls) for i, cls in enumerate(VERIFY_CLASSES)
            if cls not in HEAVY_CLASSES]
    for j, chart in enumerate(BUNDLED_FLAT):
        suite, order = VERIFY_CLASSES[5 * j]
        ops.append(VerifyOp(chart, PRODUCTS[j], suite, order, VERIFY_SEEDS[j % len(VERIFY_SEEDS)]))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "star_curved": star_curved_round,
    "star_flat": star_flat_round,
    "verify_suites": verify_round,
}


def rounds(workload, seed):
    """The endless round stream of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)


def warmup_op(workload):
    """A small fixed request run at set-up, outside the timed region."""
    if workload == "verify_suites":
        return VerifyOp("c1_flat", "wick", "algebra", 1, 0)
    # f and g differ, so that the tau cache does not hit
    if workload == "star_curved":
        chart, f, g = "disk", 1, 2          # z1, zb1
    else:
        chart, f, g = "c2_flat", 1, 3       # z1, z1*zb1
    one = (Fraction(1), Fraction(0))
    return StarOp(chart, "wick", 1, ((f, *one),), ((g, *one),))


# -- running ops ---------------------------------------------------------------


def run_op(op, chart_texts):
    """Run one request through the engine's public entry points, from fresh
    state.  Functions are looked up on their modules at call time, so that
    an installed tracer sees the calls."""
    if isinstance(op, VerifyOp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = wickstar.cli.main(op.argv)
        return code, out.getvalue()
    chart = wickstar.chart.load_chart(chart_texts[op.chart])
    f = wickstar.expr.parse(op.f_text, chart.n, chart.factor_base)
    g = wickstar.expr.parse(op.g_text, chart.n, chart.factor_base)
    data = wickstar.fedosov.FedosovData(op.product, chart, 2 * op.order + 2)
    return wickstar.fedosov.star(data, f, g, op.order)


# -- checking results ---------------------------------------------------------------


class Checker:
    """Checks results against the recorded tables, outside the timed region.

    `check` returns None for a correct result and a reason otherwise.
    Parsed reference values and check charts are memoized here.
    """

    def __init__(self, chart_texts, star_refs, verify_refs):
        self.chart_texts = chart_texts
        self.star_refs = star_refs
        self.verify_refs = verify_refs
        self._charts = {}
        self._parsed = {}
        self._ints = {}
        self._monomials = {}

    def _chart(self, name):
        if name not in self._charts:
            self._charts[name] = wickstar.chart.load_chart(self.chart_texts[name])
        return self._charts[name]

    def _ref(self, chart, product, i, j):
        key = (chart.name, product, i, j)
        hit = self._parsed.get(key)
        if hit is None:
            texts = self.star_refs[chart.name][product][i][j]
            hit = [wickstar.expr.parse(t, chart.n, chart.factor_base) for t in texts]
            self._parsed[key] = hit
        return hit

    def _int_ref(self, chart, product, i, j, r):
        """Coefficient r of a recorded basis product in integers (see
        `integer_terms`), or None when it is not a polynomial."""
        key = (chart.name, product, i, j, r)
        if key not in self._ints:
            ref = self._ref(chart, product, i, j)[r]
            self._ints[key] = integer_terms(ref) if ref.is_polynomial() else None
        return self._ints[key]

    def _matches_refs(self, chart, op, r, got):
        """Whether `got` equals coefficient r of the recorded basis products
        combined with the coefficients of f and g.  Polynomials are combined
        in Gaussian integers over a common denominator, which costs a small
        part of combining them as ChartExpr; rational functions as ChartExpr."""
        refs = {(i, j): self._int_ref(chart, op.product, i, j, r)
                for i, *_ in op.f for j, *_ in op.g}
        if None in refs.values() or not got.is_polynomial():
            gr = wickstar.expr.GaussianRational
            want = wickstar.expr.ChartExpr.zero(chart.n)
            for i, a_re, a_im in op.f:
                for j, b_re, b_im in op.g:
                    ab = gr(a_re, a_im) * gr(b_re, b_im)
                    want = want + self._ref(chart, op.product, i, j)[r].scale(ab)
            return got == want
        fd = math.lcm(*(q.denominator for _, re, im in op.f for q in (re, im)))
        gd = math.lcm(*(q.denominator for _, re, im in op.g for q in (re, im)))
        common = math.lcm(*(d for _, d in refs.values()))
        want = {}
        for i, a_re, a_im in op.f:
            x, y = int(a_re * fd), int(a_im * fd)
            for j, b_re, b_im in op.g:
                u, v = int(b_re * gd), int(b_im * gd)
                p, q = x * u - y * v, x * v + y * u
                terms, d = refs[i, j]
                k = common // d
                for exp, (m, n) in terms.items():
                    re, im = want.get(exp, (0, 0))
                    want[exp] = (re + k * (p * m - q * n), im + k * (p * n + q * m))
        want = {exp: c for exp, c in want.items() if c != (0, 0)}
        have, scale = integer_terms(got)
        total = fd * gd * common
        if total % scale:
            return False
        have = {exp: (re * (total // scale), im * (total // scale)) for exp, (re, im) in have.items()}
        return have == want

    def _poly(self, chart, terms):
        gr = wickstar.expr.GaussianRational
        out = wickstar.expr.ChartExpr.zero(chart.n)
        for k, re, im in terms:
            key = (chart.name, k)
            if key not in self._monomials:
                self._monomials[key] = wickstar.expr.parse(basis(chart.name)[k], chart.n, chart.factor_base)
            out = out + self._monomials[key].scale(gr(re, im))
        return out

    def check(self, op, result):
        if isinstance(op, VerifyOp):
            return self._check_verify(op, result)
        return self._check_star(op, result)

    def _check_star(self, op, series):
        chart = self._chart(op.chart)
        coeffs = series.coeffs
        if len(coeffs) != op.order + 1:
            return f"expected {op.order + 1} coefficients, got {len(coeffs)}"
        f, g = self._poly(chart, op.f), self._poly(chart, op.g)
        if coeffs[0] != f * g:
            return "C0 != f*g"
        for r in range(op.order + 1):
            if not self._matches_refs(chart, op, r, coeffs[r]):
                return f"C{r} differs from the recorded basis products"
        if op.chart in CLOSED_FORM_CHARTS and op.product != "weyl":
            oracle = wickstar.fedosov.closed_form_flat(chart, f, g, op.product, op.order)
            if oracle != series:
                return "differs from closed_form_flat"
        return None

    def _check_verify(self, op, result):
        code, text = result
        if code not in (0, 1):
            return f"exit code {code}"
        recorded = self.verify_refs.get("|".join(map(str, op.key)))
        if recorded is None or op.seed not in VERIFY_SEEDS:
            return "no recorded checks for this request"
        column = VERIFY_SEEDS.index(op.seed)
        want = [(name, flags[column] == "P") for name, flags in recorded]
        got = parse_verify_text(text)
        if len(got) != len(want):
            return f"{len(got)} checks reported, {len(want)} recorded"
        for (line, (name, passed)) in zip(got, want):
            tag = "[PASS] " if passed else "[FAIL] "
            if not (line == tag + name or (not passed and line.startswith(f"{tag}{name}: "))):
                return f"check {name!r}: expected {'pass' if passed else 'fail'}, got {line!r}"
        if code != (0 if all(p for _, p in want) else 1):
            return f"exit code {code} disagrees with the checks"
        return None


ONE = wickstar.expr.GaussianRational(1)


def integer_terms(poly):
    """A polynomial ChartExpr as ({exponent: (re, im)}, d): Gaussian-integer
    numerators over the least common denominator d of its coefficients."""
    coeffs = poly.num.terms
    lead = poly.den.constant_value()
    if lead != ONE:
        coeffs = {exp: c / lead for exp, c in coeffs.items()}
    d = math.lcm(1, *(q.denominator for c in coeffs.values() for q in (c.re, c.im)))
    return {exp: (c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator))
            for exp, c in coeffs.items()}, d


def parse_verify_text(text):
    """The `[PASS] ...` / `[FAIL] ...` lines of a text verify report."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(("[PASS] ", "[FAIL] ")):
            out.append(line)
    return out
