"""Formal Weyl algebra: graded terms, fibrewise products, structural operators."""

import pytest

from wickstar import weyl
from wickstar.expr import ChartExpr, GaussianRational, parse
from wickstar.sampling import Lcg, random_weyl_element
from wickstar.weyl import (
    NuSeries,
    WeylElement,
    ad,
    ad_over_nu,
    circ,
    conj_C,
    delta,
    delta_fib,
    delta_inv,
    delta_star,
    delta_z,
    delta_z_inv,
    delta_zbar,
    delta_zbar_inv,
    fib_equiv_S,
    mu,
    nabla,
    nabla_z,
    nabla_zbar,
    parity_P,
    project,
    sigma,
    to_nu_series,
)


def dz(n=1, k=0):
    return WeylElement.sym_generator(n, k)


def dzb(n=1, k=0):
    return WeylElement.sym_generator(n, n + k)


def scalar(text, n=1, nu=0):
    return WeylElement.scalar(parse(text, n), nu_power=nu)


def elements(chart, count, seed, max_degree=6):
    rng = Lcg(seed)
    return [random_weyl_element(chart, rng.split(i), max_degree=max_degree)
            for i in range(count)]


# -- pointwise product -------------------------------------------------------


def test_mu_examples(c1_flat):
    a = mu(dz(), dzb())
    assert set(a.terms) == {(0, (1, 1), 0)}
    form = WeylElement.asym_generator(1, 0)
    assert mu(form, form).is_zero()
    formb = WeylElement.asym_generator(1, 1)
    assert mu(form, formb) == -mu(formb, form)


def test_mu_supercommutative(disk):
    for a in elements(disk, 3, 11):
        for b in elements(disk, 3, 12):
            for da, pa in a.deg_a_components().items():
                for db, pb in b.deg_a_components().items():
                    sign = GaussianRational(-1 if (da * db) % 2 else 1)
                    assert mu(pa, pb) == mu(pb, pa).scale(sign)


# -- fibrewise products ------------------------------------------------------


def test_circ_wick_contraction(c1_flat):
    got = circ(dz(), dzb(), "wick", c1_flat)
    want = mu(dz(), dzb()) + scalar("-2*i", nu=1)
    assert got == want
    assert circ(dzb(), dz(), "wick", c1_flat) == mu(dz(), dzb())


def test_circ_unit(c1_flat, disk):
    one = WeylElement.unit(1)
    for chart in (c1_flat, disk):
        for a in elements(chart, 2, 21):
            for kind in weyl.KINDS:
                assert circ(one, a, kind, chart) == a
                assert circ(a, one, kind, chart) == a


def test_circ_dimension_mismatch(c1_flat):
    with pytest.raises(weyl.DimensionMismatch):
        circ(WeylElement.unit(2), WeylElement.unit(1), "wick", c1_flat)


def test_circ_associative_all_kinds(c1_flat, disk, cp1):
    for chart in (c1_flat, disk, cp1):
        a, b, c = elements(chart, 3, 31)
        for kind in weyl.KINDS:
            lhs = circ(circ(a, b, kind, chart), c, kind, chart)
            rhs = circ(a, circ(b, c, kind, chart), kind, chart)
            assert lhs == rhs


def test_deg_is_derivation(disk):
    a, b = elements(disk, 2, 41)
    for kind in weyl.KINDS:
        for d1 in range(7):
            for d2 in range(7):
                h = circ(a.component(d1), b.component(d2), kind, disk)
                degs = {sum(k[1]) + 2 * k[0] for k in h.terms}
                assert degs <= {d1 + d2}


def test_ad_examples(c1_flat):
    got = ad(dz(), dzb(), "wick", c1_flat)
    assert got == scalar("-2*i", nu=1)
    even = mu(dz(), dzb())
    assert ad(even, even, "wick", c1_flat).is_zero()
    one = WeylElement.unit(1)
    for a in elements(c1_flat, 2, 51):
        assert ad(one, a, "wick", c1_flat).is_zero()


def test_ad_over_nu_matches_ad(disk):
    a, b = elements(disk, 2, 61, max_degree=4)
    for kind in weyl.KINDS:
        direct = ad(a, b, kind, disk)
        # every commutator term carries nu, so dividing and re-multiplying
        # is the identity
        over = ad_over_nu(a, b, kind, disk, None)
        assert over.mul_nu(1) == direct


# -- delta family -------------------------------------------------------------


def test_delta_examples():
    assert delta(dz()) == WeylElement.asym_generator(1, 0)
    assert delta_inv(WeylElement.asym_generator(1, 0)) == dz()
    mixed = WeylElement.from_terms(1, [(0, (1, 0), 2, ChartExpr.one(1))])  # dz x dzb
    assert delta_inv(mixed) == mu(dz(), dzb()).scale(
        GaussianRational(1) / GaussianRational(2))


def test_hodge_identity(c1_flat, disk):
    for chart in (c1_flat, disk):
        for a in elements(chart, 6, 71):
            assert delta(delta_inv(a)) + delta_inv(delta(a)) + sigma(a) == a


def test_delta_nilpotent_and_anticommutator(disk):
    for a in elements(disk, 5, 81):
        assert delta(delta(a)).is_zero()
        assert delta_star(delta_star(a)).is_zero()
        lhs = delta(delta_star(a)) + delta_star(delta(a))
        expect = WeylElement(1, {}, a.truncation)
        for (p, s, m), c in a.terms.items():
            total = sum(s) + bin(m).count("1")
            if total:
                expect._add(p, s, m, c.scale(GaussianRational(total)))
        assert lhs == expect


def test_sigma_extracts_scalars():
    a = scalar("z1*zb1") + dz() + scalar("3", nu=2)
    s = sigma(a)
    assert to_nu_series(s, 2) == NuSeries([parse("z1*zb1", 1), ChartExpr.zero(1), parse("3", 1)])


# -- covariant derivative ------------------------------------------------------


def test_nabla_scalar(disk):
    got = nabla(WeylElement.scalar(parse("z1*zb1", 1)), disk, disk.connection)
    want = WeylElement.from_terms(1, [
        (0, (0, 0), 1, parse("zb1", 1)),
        (0, (0, 0), 2, parse("z1", 1)),
    ])
    assert got == want


def test_nabla_flat_generator(c1_flat):
    assert nabla(dz(), c1_flat, c1_flat.connection).is_zero()


def test_nabla_disk_generator(disk):
    got = nabla(dz(), disk, disk.connection)
    want = WeylElement.from_terms(1, [(0, (1, 0), 1, parse("-2*zb1/(1 - z1*zb1)", 1, disk.factor_base))])
    assert got == want


def test_delta_nabla_anticommute(disk, cp1):
    for chart in (disk, cp1):
        conn = chart.connection
        for a in elements(chart, 4, 91):
            assert (delta(nabla(a, chart, conn)) + nabla(delta(a), chart, conn)).is_zero()


def test_nabla_squared_is_curvature(disk, cp1):
    for chart in (disk, cp1):
        conn = chart.connection
        R = chart.curvature_data.curvature_element
        for a in elements(chart, 3, 101):
            n2 = nabla(nabla(a, chart, conn), chart, conn)
            for kind in weyl.KINDS:
                assert (n2 + ad_over_nu(R, a, kind, chart, None)).is_zero()


def test_derivation_property_of_circ(disk):
    conn = disk.connection
    a, b = elements(disk, 2, 111, max_degree=4)
    for kind in weyl.KINDS:
        for da, pa in a.deg_a_components().items():
            sign = GaussianRational(-1 if da % 2 else 1)
            lhs = nabla(circ(pa, b, kind, disk), disk, conn)
            rhs = circ(nabla(pa, disk, conn), b, kind, disk) + \
                circ(pa, nabla(b, disk, conn), kind, disk).scale(sign)
            assert lhs == rhs
            lhs_d = delta(circ(pa, b, kind, disk))
            rhs_d = circ(delta(pa), b, kind, disk) + \
                circ(pa, delta(b), kind, disk).scale(sign)
            assert lhs_d == rhs_d


# -- projections ----------------------------------------------------------------


def test_projection_examples():
    t = WeylElement.from_terms(1, [(0, (1, 0), 1, parse("z1*zb1", 1))])
    assert project(t, "pi_z") == t  # coefficients are untouched
    assert project(mu(dz(), dzb()), "pi_z").is_zero()
    tt = WeylElement.from_terms(1, [(0, (0, 1), 1, ChartExpr.one(1))])
    assert project(tt, "pi_zbar").is_zero()


def test_projections_idempotent(disk):
    for a in elements(disk, 4, 121):
        for sel in ("pi_z", "pi_zbar", "pi_sz", "pi_szbar", "pi_az", "pi_azbar"):
            assert project(project(a, sel), sel) == project(a, sel)
        assert project(project(a, "pi_z"), "pi_zbar") == sigma(a)


def test_projection_type_components(disk):
    for a in elements(disk, 3, 131):
        total = WeylElement.zero(a.n, a.truncation)
        for p in range(7):
            for q in range(7):
                total = total + project(a, "pi_s", (p, q))
        assert total == a


def test_projection_product_compatibility(disk):
    for a in elements(disk, 3, 141, max_degree=4):
        for b in elements(disk, 3, 142, max_degree=4):
            prod = circ(a, b, "wick", disk)
            assert project(prod, "pi_z") == project(
                circ(project(a, "pi_z"), b, "wick", disk), "pi_z")
            assert project(prod, "pi_zbar") == project(
                circ(a, project(b, "pi_zbar"), "wick", disk), "pi_zbar")
            assert project(prod, "pi_sz") == project(
                circ(project(a, "pi_sz"), b, "wick", disk), "pi_sz")
            # the antisymmetric projections are product homomorphisms
            assert project(prod, "pi_az") == circ(
                project(a, "pi_az"), project(b, "pi_az"), "wick", disk)
            assert project(prod, "pi_azbar") == circ(
                project(a, "pi_azbar"), project(b, "pi_azbar"), "wick", disk)


@pytest.mark.parametrize("product", [
    lambda a, b, kind, chart: circ(a, b, kind, chart),
    lambda a, b, kind, chart: weyl.circ_over_nu(a, b, kind, chart, None),
    lambda a, b, kind, chart: ad(a, b, kind, chart),
    lambda a, b, kind, chart: ad_over_nu(a, b, kind, chart, None),
], ids=["circ", "circ_over_nu", "ad", "ad_over_nu"])
def test_pair_products_reject_unknown_kind(product, c1_flat):
    with pytest.raises(ValueError, match="unknown product kind"):
        product(dz(), dzb(), "bogus", c1_flat)


# -- holomorphic splittings -------------------------------------------------------


def test_split_examples():
    a = mu(dz(), dzb())
    got = delta_z(a)
    want = WeylElement.from_terms(1, [(0, (0, 1), 1, ChartExpr.one(1))])
    assert got == want
    assert delta_zbar(dz()).is_zero()


def test_split_sums(disk):
    conn = disk.connection
    for a in elements(disk, 4, 151):
        assert delta_z(a) + delta_zbar(a) == delta(a)
        assert nabla_z(a, disk, conn) + nabla_zbar(a, disk, conn) == nabla(a, disk, conn)


def test_split_hodge_identities(c1_flat, disk):
    for chart in (c1_flat, disk):
        for a in elements(chart, 6, 161):
            lhs1 = delta_z_inv(delta_z(a)) + delta_z(delta_z_inv(a)) + project(a, "pi_zbar")
            lhs2 = delta_zbar_inv(delta_zbar(a)) + delta_zbar(delta_zbar_inv(a)) + project(a, "pi_z")
            assert lhs1 == a and lhs2 == a


def test_split_operator_identities(disk):
    conn = disk.connection
    R = disk.curvature_data.curvature_element
    nz = lambda x: nabla_z(x, disk, conn)
    nzb = lambda x: nabla_zbar(x, disk, conn)
    for a in elements(disk, 3, 171):
        assert delta_z(delta_z(a)).is_zero()
        assert delta_zbar(delta_zbar(a)).is_zero()
        assert (delta_z(delta_zbar(a)) + delta_zbar(delta_z(a))).is_zero()
        assert nz(nz(a)).is_zero()
        assert nzb(nzb(a)).is_zero()
        assert (nz(nzb(a)) + nzb(nz(a)) + ad_over_nu(R, a, "wick", disk, None)).is_zero()
        assert (delta_z(nz(a)) + nz(delta_z(a))).is_zero()
        assert (delta_z(nzb(a)) + nzb(delta_z(a))).is_zero()
        assert (delta_zbar(nz(a)) + nz(delta_zbar(a))).is_zero()
        assert (delta_zbar(nzb(a)) + nzb(delta_zbar(a))).is_zero()


# -- equivalence, parity, conjugation ----------------------------------------------


def test_fib_equiv_examples(c1_flat):
    got = fib_equiv_S(mu(dz(), dzb()), c1_flat, "forward")
    want = mu(dz(), dzb()) + scalar("-i", nu=1)
    assert got == want
    f = WeylElement.scalar(parse("z1", 1))
    assert fib_equiv_S(f, c1_flat) == f


def test_fib_equiv_intertwines(c1_flat, disk):
    for chart in (c1_flat, disk):
        for a in elements(chart, 2, 191, max_degree=4):
            for b in elements(chart, 2, 192, max_degree=4):
                assert fib_equiv_S(fib_equiv_S(a, chart, "forward"), chart, "inverse") == a
                lhs = fib_equiv_S(
                    circ(fib_equiv_S(a, chart), fib_equiv_S(b, chart), "wick", chart),
                    chart, "inverse")
                assert lhs == circ(a, b, "weyl", chart)
                rhs = fib_equiv_S(
                    circ(fib_equiv_S(a, chart, "inverse"), fib_equiv_S(b, chart, "inverse"),
                         "antiwick", chart),
                    chart, "forward")
                assert rhs == circ(a, b, "weyl", chart)


def test_delta_fib_lowers(c1_flat):
    assert delta_fib(mu(dz(), dzb()), c1_flat) == WeylElement.unit(1)


def test_parity_examples():
    a = scalar("z1", nu=1)
    assert parity_P(a) == -a
    b = scalar("z1*zb1")
    assert parity_P(b) == b
    series = NuSeries([parse("1", 1), parse("z1", 1), parse("zb1", 1)])
    assert parity_P(parity_P(series)) == series


def test_conjugation_examples():
    x = WeylElement.from_terms(1, [(1, (1, 0), 0, parse("i", 1))])
    assert conj_C(x) == WeylElement.from_terms(1, [(1, (0, 1), 0, parse("i", 1))])
    z = WeylElement.scalar(parse("z1", 1))
    assert conj_C(z) == WeylElement.scalar(parse("zb1", 1))


def test_conjugation_involution(disk):
    for a in elements(disk, 4, 201):
        assert conj_C(conj_C(a)) == a


def test_conjugation_antihomomorphism(disk):
    for a in elements(disk, 2, 211, max_degree=4):
        for b in elements(disk, 2, 212, max_degree=4):
            for da, pa in a.deg_a_components().items():
                for db, pb in b.deg_a_components().items():
                    sign = GaussianRational(-1 if (da * db) % 2 else 1)
                    lhs = conj_C(circ(pa, pb, "wick", disk))
                    rhs = circ(conj_C(pb), conj_C(pa), "wick", disk).scale(sign)
                    assert lhs == rhs


# -- serialization ------------------------------------------------------------------


def test_serialization_golden():
    a = scalar("-2*i", nu=1) + mu(dz(), dzb()) + \
        WeylElement.from_terms(1, [(0, (0, 0), 3, parse("z1", 1))])
    assert a.serialize() == \
        "(z1) ^ dz1 ^ dzb1 + (1) * dz1 v dzb1 + nu^1 * (-2*i)"


def test_nu_series_render():
    s = NuSeries([parse("z1*zb1", 1), parse("-2*i", 1)])
    assert s.render_lines() == ["order0: z1*zb1", "order1: -2*i"]
