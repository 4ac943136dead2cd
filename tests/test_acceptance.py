"""Acceptance criteria, one test per criterion, at the stated scales.

Every check is exact (rational arithmetic); each test prints a single
pass/fail line with its runtime.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete.
"""

import time

import pytest

from wickstar import weyl
from wickstar.chart import FormSeries, OneForm, TwoForm
from wickstar.expr import ChartExpr, parse
from wickstar.fedosov import (
    FedosovData,
    closed_form_flat,
    compute_r_via_fixed_point,
    equivalence_A_h,
    fedosov_D,
    hermitian_check,
    karabegov_form,
    parity_transport,
    star,
    tau,
    vey_order_check,
    wick_type_check,
)
from wickstar.sampling import Lcg, monomial_pool, random_polynomial, random_weyl_element, spanning_set
from wickstar.weyl import NuSeries, WeylElement


def report(number, label, ok, started):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({time.perf_counter() - started:.1f}s)"
    print(line)
    assert ok, line


def nu_omega(chart):
    return FormSeries(chart.n, [(1, chart.omega)])


def pool_for(chart, seed, count=5):
    rng = Lcg(seed)
    return [random_polynomial(chart.n, rng.split(i), max_degree=3, terms=4)
            for i in range(count)]


def test_criterion_1_flat_closed_form(c1_flat, c2_flat):
    started = time.perf_counter()
    ok = True
    for chart in (c1_flat, c2_flat):
        pool = monomial_pool(chart.n, 3)
        for kind in ("wick", "antiwick"):
            data = FedosovData(kind, chart, K=10)
            for m in pool:
                tau(data, m)
            for f in pool:
                for g in pool:
                    if star(data, f, g, 4) != closed_form_flat(chart, f, g, kind, 4):
                        ok = False
                        break
                if not ok:
                    break
    report(1, "flat star products coincide with the closed-form oracle", ok, started)


def test_criterion_2_associativity(c1_flat, disk, cp1):
    started = time.perf_counter()
    ok = True
    rng = Lcg(2024)
    for chart in (c1_flat, disk, cp1):
        for omega in (None, nu_omega(chart)):
            cfg_chart = chart if omega is None else chart.with_omega(omega)
            for kind in ("weyl", "wick", "antiwick"):
                data = FedosovData(kind, cfg_chart, K=8)
                stream = rng.split(f"{chart.name}/{kind}/{omega is not None}")
                for _ in range(10):
                    f = random_polynomial(chart.n, stream, max_degree=2, terms=3)
                    g = random_polynomial(chart.n, stream, max_degree=2, terms=3)
                    h = random_polynomial(chart.n, stream, max_degree=2, terms=3)
                    tf, tg, th = tau(data, f), tau(data, g), tau(data, h)
                    inner1 = weyl.circ(tf, tg, kind, cfg_chart, trunc=6)
                    lhs = weyl.sigma_circ(inner1, th, kind, cfg_chart, 3)
                    inner2 = weyl.circ(tg, th, kind, cfg_chart, trunc=6)
                    rhs = weyl.sigma_circ(tf, inner2, kind, cfg_chart, 3)
                    if weyl.to_nu_series(lhs, 3) != weyl.to_nu_series(rhs, 3):
                        ok = False
    report(2, "star products associative to order 3 on sampled triples", ok, started)


def test_criterion_3_wick_characterization(disk_omega_nu, c2_flat_omega20):
    started = time.perf_counter()
    data = FedosovData("wick", disk_omega_nu, K=8)
    anti = [parse(t, 1) for t in ("1", "zb1", "zb1^2", "zb1^3")]
    hol = [parse(t, 1) for t in ("1", "z1", "z1^2", "z1^3")]
    pool = pool_for(disk_omega_nu, 33, count=4)
    witnesses = ([(h, g) for h in anti for g in pool],
                 [(f, h) for h in hol for f in pool])
    positive = wick_type_check(data, 3, witnesses=witnesses)
    control = FedosovData("wick", c2_flat_omega20, K=8)
    negative = wick_type_check(control, 3)
    failed = {c.name for c in negative.failures()}
    ok = positive.passed and not negative.passed \
        and any(n.startswith("structural") for n in failed) \
        and any(n.startswith("behavioral") for n in failed)
    report(3, "Wick-type characterization (positive and negative control)", ok, started)


def test_criterion_4_karabegov(c1_flat, disk_omega_nu):
    started = time.perf_counter()
    ok = True
    d_flat = FedosovData("wick", c1_flat, K=8)
    form = karabegov_form(d_flat, 3, pool=pool_for(c1_flat, 44, count=4))
    ok = ok and form == FormSeries(1, [(0, c1_flat.omega)])
    d_disk = FedosovData("wick", disk_omega_nu, K=8)
    form2 = karabegov_form(d_disk, 3, pool=pool_for(disk_omega_nu, 45, count=4))
    omega = disk_omega_nu.omega
    ok = ok and form2 == FormSeries(1, [(0, omega), (1, omega)])
    report(4, "characterizing form reproduces omega + Omega with its relations",
           ok, started)


def test_criterion_5_parity_duality(c1_flat, disk_omega_nu):
    started = time.perf_counter()
    ok = True
    for chart, seed in ((c1_flat, 55), (disk_omega_nu, 56)):
        data = FedosovData("wick", chart, K=8)
        mirror = parity_transport(data)
        pool = pool_for(chart, seed, count=5)
        for f in pool:
            for g in pool:
                if star(mirror, f, g, 3) != weyl.parity_P(star(data, g, f, 3)):
                    ok = False
    report(5, "parity duality between the two product types", ok, started)


def test_criterion_6_structural_suite(c1_flat, c2_flat, disk, cp1):
    started = time.perf_counter()
    ok = True
    for chart in (c1_flat, c2_flat, disk, cp1):
        conn = chart.connection
        curv = chart.curvature_data
        R = curv.curvature_element
        ok = ok and weyl.delta(R).is_zero()
        ok = ok and weyl.nabla(R, chart, conn).is_zero()
        ok = ok and weyl.delta_fib(R, chart) == curv.ricci_form.to_weyl()
        rng = Lcg(6000 + chart.n)
        els = [random_weyl_element(chart, rng.split(i), max_degree=6, terms=5)
               for i in range(20)]
        for e in els:
            hodge = weyl.delta(weyl.delta_inv(e)) + weyl.delta_inv(weyl.delta(e)) + weyl.sigma(e)
            ok = ok and hodge == e
            s1 = weyl.delta_z_inv(weyl.delta_z(e)) + weyl.delta_z(weyl.delta_z_inv(e)) \
                + weyl.project(e, "pi_zbar")
            s2 = weyl.delta_zbar_inv(weyl.delta_zbar(e)) + weyl.delta_zbar(weyl.delta_zbar_inv(e)) \
                + weyl.project(e, "pi_z")
            ok = ok and s1 == e and s2 == e
            ok = ok and weyl.delta_z(weyl.delta_z(e)).is_zero()
            ok = ok and (weyl.delta_z(weyl.delta_zbar(e)) + weyl.delta_zbar(weyl.delta_z(e))).is_zero()
            nz = weyl.nabla_z(e, chart, conn)
            nzb = weyl.nabla_zbar(e, chart, conn)
            ok = ok and weyl.nabla_z(nz, chart, conn).is_zero()
            ok = ok and weyl.nabla_zbar(nzb, chart, conn).is_zero()
            mixed = weyl.nabla_z(nzb, chart, conn) + weyl.nabla_zbar(nz, chart, conn)
            ok = ok and (mixed + weyl.ad_over_nu(R, e, "wick", chart, None)).is_zero()
            ok = ok and (weyl.delta_z(nz) + weyl.nabla_z(weyl.delta_z(e), chart, conn)).is_zero()
            ok = ok and (weyl.delta_zbar(nz) + weyl.nabla_z(weyl.delta_zbar(e), chart, conn)).is_zero()
            n2 = weyl.nabla(weyl.nabla(e, chart, conn), chart, conn)
            for kind in weyl.KINDS:
                ok = ok and (n2 + weyl.ad_over_nu(R, e, kind, chart, None)).is_zero()
        for i in range(0, 19, 2):
            a, b = els[i], els[i + 1]
            prod = weyl.circ(a, b, "wick", chart)
            ok = ok and weyl.project(prod, "pi_z") == weyl.project(
                weyl.circ(weyl.project(a, "pi_z"), b, "wick", chart), "pi_z")
            ok = ok and weyl.project(prod, "pi_zbar") == weyl.project(
                weyl.circ(a, weyl.project(b, "pi_zbar"), "wick", chart), "pi_zbar")
    report(6, "structural operator identities on 20 random elements per chart",
           ok, started)


def test_criterion_7_flatness_and_uniqueness(c1_flat, disk):
    started = time.perf_counter()
    ok = True
    for chart in (c1_flat, disk):
        data = FedosovData("wick", chart, K=8)
        for e in spanning_set(chart, 6, truncation=8):
            if not fedosov_D(data, fedosov_D(data, e)).is_zero():
                ok = False
        seed2 = weyl.delta_inv(chart.curvature_data.curvature_element.truncate(8))
        ok = ok and compute_r_via_fixed_point(data) == data.r
        ok = ok and compute_r_via_fixed_point(data, seed=seed2) == data.r
    report(7, "D squares to zero on a spanning set; fixed point is seed-independent",
           ok, started)


def test_criterion_8_equivalence_machinery(c1_flat):
    started = time.perf_counter()
    ok = True
    zb = parse("zb1", 1)
    d0 = FedosovData("wick", c1_flat, K=6)
    omega_p = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    d1 = FedosovData("wick", c1_flat, K=6, omega=omega_p)
    C = FormSeries(1, [(1, OneForm(1, hol={0: zb}))])
    transform = equivalence_A_h(d0, d1, C, 2)
    z = parse("z1", 1)
    for f, g in ((z, zb), (zb, z * zb), (z * zb, z)):
        lhs = transform.apply(star(d0, f, g, 2), 2)
        rhs_f = transform.apply(f, 2)
        rhs_g = transform.apply(g, 2)
        from wickstar.fedosov import star_series
        if lhs != star_series(d1, rhs_f, rhs_g, 2):
            ok = False
    d_big = FedosovData("wick", c1_flat, K=8)
    mixed = WeylElement.from_terms(1, [(0, (2, 1), 0, ChartExpr.one(1))], 8)
    d_mixed = FedosovData("wick", c1_flat, K=8, s=mixed)
    identity = equivalence_A_h(d_big, d_mixed, FormSeries.zero(1), 3)
    for f in (z, zb, z * zb, z ** 2 * zb):
        if identity.apply(f, 3) != NuSeries.from_function(f, 3):
            ok = False
    for f, g in ((z, zb), (z * zb, z ** 2), (zb ** 2, z)):
        if star(d_big, f, g, 3) != star(d_mixed, f, g, 3):
            ok = False
    report(8, "equivalence transformation and normalization independence", ok, started)


def test_criterion_9_hermiticity(disk_omega_inu, disk_omega_nu):
    started = time.perf_counter()
    d_im = FedosovData("wick", disk_omega_inu, K=6)
    good = hermitian_check(d_im, 2)
    d_re = FedosovData("wick", disk_omega_nu, K=6)
    bad = hermitian_check(d_re, 2)
    by_name = {c.name: c.passed for c in bad.checks}
    ok = good.passed \
        and not by_name["structural: conj(Omega) = Omega"] \
        and not by_name["behavioral: conj(f*g) = conj(g) * conj(f)"] \
        and by_name["criteria agree"]
    report(9, "Hermiticity criterion (positive and negative, consistently)",
           ok, started)


def test_criterion_10_vey_order(disk_omega_nu):
    started = time.perf_counter()
    data = FedosovData("wick", disk_omega_nu, K=6)
    rep = vey_order_check(data, 2)
    report(10, "coefficients have differential order (r,r) for r <= 2",
           rep.passed, started)
