"""Deterministic sampling for property checks and verification suites.

A plain 64-bit linear congruential generator keeps sampled checks
reproducible across runs and implementations.  Constants (Knuth's MMIX
multiplier):

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

with the top 32 bits used as output.  `split` derives an independent
stream from a tag so suites can draw without interfering.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import ChartExpr, ChartPolynomial, GaussianRational
from .weyl import WeylElement

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed=0):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self.next_u32()

    def next_u32(self):
        self.state = (_A * self.state + _C) & _MASK
        return self.state >> 32

    def randint(self, low, high):
        """Uniform-ish integer in [low, high]."""
        span = high - low + 1
        return low + self.next_u32() % span

    def fraction(self):
        """A fraction with numerator in [-3, 3] and denominator in [1, 2]."""
        num = self.randint(-3, 3)
        den = self.randint(1, 2)
        return Fraction(num, den)

    def gaussian_rational(self):
        return GaussianRational(self.fraction(), self.fraction())

    def split(self, tag):
        """An independent generator derived from this one and a tag."""
        if isinstance(tag, str):
            tag = sum((i + 1) * b for i, b in enumerate(tag.encode()))
        return Lcg(self.state ^ ((tag + 1) * 0xD1342543DE82EF95 & _MASK))


def random_polynomial(n, rng, max_degree=3, terms=4):
    """Sparse random polynomial with per-variable degree <= max_degree."""
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_degree) if rng.randint(0, 1) else 0 for _ in range(2 * n))
        coeff = rng.gaussian_rational()
        if coeff.is_zero():
            continue
        cur = out.get(exp)
        out[exp] = coeff if cur is None else cur + coeff
    out = {e: c for e, c in out.items() if not c.is_zero()}
    if not out:
        out = {(0,) * (2 * n): GaussianRational(1)}
    return ChartExpr(ChartPolynomial(2 * n, out))


def monomial_pool(n, max_degree=3):
    """All monomials with per-variable degree <= max_degree (exact order)."""
    exps = [()]
    for _ in range(2 * n):
        exps = [e + (d,) for e in exps for d in range(max_degree + 1)]
    pool = []
    for exp in exps:
        pool.append(ChartExpr(ChartPolynomial(2 * n, {exp: GaussianRational(1)})))
    return pool


def random_weyl_element(chart, rng, max_degree=6, terms=6, truncation=None):
    """Random element with bounded total degree and small polynomial
    coefficients of per-variable degree <= 1.

    Identity checks want untruncated elements (operator compositions may
    transiently exceed the generation bound), so no truncation is attached
    unless requested.
    """
    n = chart.n
    items = []
    for _ in range(terms):
        p = rng.randint(0, max_degree // 2)
        budget = max_degree - 2 * p
        sym = [0] * (2 * n)
        for _ in range(rng.randint(0, budget)):
            sym[rng.randint(0, 2 * n - 1)] += 1
        if sum(sym) + 2 * p > max_degree:
            continue
        asym = rng.randint(0, (1 << (2 * n)) - 1)
        coeff = random_polynomial(n, rng, max_degree=1, terms=2)
        if coeff.is_zero():
            continue
        items.append((p, tuple(sym), asym, coeff))
    return WeylElement.from_terms(n, items, truncation)


def spanning_scalars(n):
    """Small scalar functions that multiply the graded generators in a
    spanning set: 1, each coordinate, and the mixed quadratic."""
    out = [ChartExpr.one(n)]
    for i in range(2 * n):
        out.append(ChartExpr.variable(n, i))
    out.append(ChartExpr.variable(n, 0) * ChartExpr.variable(n, n))
    return out


def spanning_set(chart, max_degree, truncation=None):
    """Generators of the antisymmetric-degree-0 part up to a total degree.

    Every monomial (nu-power, symmetric word) below the bound appears with
    each of a few scalar coefficient functions, which spans the relevant
    filtration level over the coefficient field.
    """
    n = chart.n
    trunc = truncation if truncation is not None else max_degree
    syms = [((0,) * (2 * n))]
    for _ in range(max_degree):
        new = []
        for sym in syms:
            for i in range(2 * n):
                cand = list(sym)
                cand[i] += 1
                cand = tuple(cand)
                if sum(cand) <= max_degree and cand not in new:
                    new.append(cand)
        for cand in new:
            if cand not in syms:
                syms.append(cand)
    out = []
    for sym in syms:
        for p in range((max_degree - sum(sym)) // 2 + 1):
            if sum(sym) + 2 * p > max_degree:
                continue
            for coeff in spanning_scalars(n):
                out.append(WeylElement.from_terms(n, [(p, sym, 0, coeff)], trunc))
    return out
