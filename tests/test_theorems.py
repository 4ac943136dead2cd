"""Wick-type characterization, equivalences, parity duality, the
characterizing form, Hermiticity, differential order, separation."""

import pytest

from wickstar import weyl
from wickstar.chart import FormSeries, OneForm, TwoForm
from wickstar.expr import ChartExpr, parse
from wickstar.fedosov import (
    FedosovData,
    FedosovError,
    equivalence_A_h,
    hermitian_check,
    karabegov_form,
    parity_transport,
    projected_tau,
    renormalize_s,
    separation_product,
    star,
    star_series,
    star_via_projections,
    tau,
    vey_order_check,
    weyl_transport,
    weyl_transport_map,
    wick_type_check,
)
from wickstar.sampling import Lcg, random_polynomial
from wickstar.weyl import NuSeries, WeylElement


@pytest.fixture(scope="module")
def d_flat(c1_flat):
    return FedosovData("wick", c1_flat, K=8)


@pytest.fixture(scope="module")
def d_disk_nu(disk_omega_nu):
    return FedosovData("wick", disk_omega_nu, K=8)


# -- Wick-type characterization ---------------------------------------------------


def test_wick_type_flat(d_flat):
    report = wick_type_check(d_flat, 3)
    assert report.passed


def test_wick_type_disk_with_form(d_disk_nu):
    report = wick_type_check(d_disk_nu, 3)
    assert report.passed


def test_wick_type_negative_control(c2_flat_omega20):
    data = FedosovData("wick", c2_flat_omega20, K=8)
    report = wick_type_check(data, 2)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "structural: pi_z r = 0" in failed
    assert "structural: two-form series of type (1,1)" in failed
    assert any(name.startswith("behavioral") for name in failed)
    # every failure carries a reproducing payload
    assert all(c.detail for c in report.failures() if c.name.startswith("behavioral"))


def test_structural_conditions_track_r_projections(c1_flat, c2_flat_omega20):
    """Positive and negative instance of: pi_z r = 0 iff pi_z s = 0 and the
    two-form has no purely holomorphic part."""
    om = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    good = FedosovData("wick", c1_flat, K=6, omega=om)
    assert weyl.project(good.r, "pi_z").is_zero()
    assert weyl.project(good.r, "pi_zbar").is_zero()
    bad = FedosovData("wick", c2_flat_omega20, K=6)
    assert not bad.omega.is_type_11()
    assert not weyl.project(bad.r, "pi_z").is_zero()
    assert weyl.project(bad.r, "pi_zbar").is_zero()  # the mirror half is intact


# -- reduced recursions -------------------------------------------------------------


def test_pi_z_tau_antiholomorphic_witnesses(d_flat, d_disk_nu, p1):
    for data in (d_flat, d_disk_nu):
        for text in ("zb1", "zb1^2"):
            h = p1(text)
            assert projected_tau(data, h, True) == WeylElement.scalar(h, truncation=data.K)


def test_pi_z_tau_matches_projection(d_disk_nu, p1):
    f = p1("z1^2*zb1 + 2*z1")
    assert projected_tau(d_disk_nu, f, True) == weyl.project(tau(d_disk_nu, f), "pi_z")
    assert projected_tau(d_disk_nu, f, False) == weyl.project(tau(d_disk_nu, f), "pi_zbar")


def test_pi_z_tau_requires_condition(c2_flat_omega20, p2):
    data = FedosovData("wick", c2_flat_omega20, K=6)
    with pytest.raises(FedosovError):
        projected_tau(data, p2("zb1"), True)


def test_star_via_projections(d_disk_nu, p1):
    f, g = p1("z1^2*zb1 + 2*z1"), p1("z1*zb1")
    assert star_via_projections(d_disk_nu, f, g, 3) == star(d_disk_nu, f, g, 3)


# -- renormalization ----------------------------------------------------------------


def test_renormalize_trivial(d_flat):
    assert renormalize_s(d_flat, FormSeries.zero(1)) is d_flat


def test_renormalize_shift(d_flat, c1_flat, p1):
    B = FormSeries(1, [(1, OneForm(1, hol={0: p1("zb1")}))])
    shifted = renormalize_s(d_flat, B)
    assert shifted.r - d_flat.r == B.to_weyl(truncation=8)
    assert shifted.omega.is_closed()
    assert shifted.omega == FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    z, zb = p1("z1"), p1("zb1")
    for f, g in ((z, zb), (zb, z * zb)):
        assert star(d_flat, f, g, 2) == star(shifted, f, g, 2)


# -- equivalence transformations -----------------------------------------------------


def test_equivalence_trivial(d_flat, p1):
    transform = equivalence_A_h(d_flat, d_flat, FormSeries.zero(1), 2)
    assert transform.h.is_zero()
    f = p1("z1*zb1")
    assert transform.apply(f, 2) == NuSeries.from_function(f, 2)


def test_equivalence_between_forms(c1_flat, p1):
    d0 = FedosovData("wick", c1_flat, K=6)
    omega_p = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    d1 = FedosovData("wick", c1_flat, K=6, omega=omega_p)
    C = FormSeries(1, [(1, OneForm(1, hol={0: p1("zb1")}))])
    transform = equivalence_A_h(d0, d1, C, 2)
    z, zb = p1("z1"), p1("zb1")
    for f, g in ((z, zb), (zb, z * zb), (z * zb, z)):
        lhs = transform.apply(star(d0, f, g, 2), 2)
        rhs = star_series(d1, transform.apply(f, 2), transform.apply(g, 2), 2)
        assert lhs == rhs
        back = transform.apply_inverse(transform.apply(f, 2), 2)
        assert back == NuSeries.from_function(f, 2)


def test_equivalence_requires_cohomologous_forms(c1_flat):
    d0 = FedosovData("wick", c1_flat, K=6)
    omega_p = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    d1 = FedosovData("wick", c1_flat, K=6, omega=omega_p)
    with pytest.raises(FedosovError):
        equivalence_A_h(d0, d1, FormSeries.zero(1), 2)


def test_normalization_independence(c1_flat, p1):
    """Two Wick-type data sets with the same two-form series but different
    admissible normalizations give the identity transformation and the
    same star product."""
    d0 = FedosovData("wick", c1_flat, K=8)
    mixed = WeylElement.from_terms(1, [(0, (2, 1), 0, ChartExpr.one(1))], 8)
    d1 = FedosovData("wick", c1_flat, K=8, s=mixed)
    assert weyl.project(d1.s, "pi_z").is_zero()
    assert weyl.project(d1.s, "pi_zbar").is_zero()
    transform = equivalence_A_h(d0, d1, FormSeries.zero(1), 3)
    z, zb = p1("z1"), p1("zb1")
    for f in (z, zb, z * zb, z ** 2 * zb):
        assert transform.apply(f, 3) == NuSeries.from_function(f, 3)
    for f, g in ((z, zb), (z * zb, z), (zb ** 2, z ** 2)):
        assert star(d0, f, g, 3) == star(d1, f, g, 3)


# -- parity duality ------------------------------------------------------------------


def test_parity_flat_examples(d_flat, p1):
    mirror = parity_transport(d_flat)
    assert mirror.kind == "antiwick"
    z, zb = p1("z1"), p1("zb1")
    assert star(mirror, zb, z, 2) == NuSeries([z * zb, p1("2*i"), ChartExpr.zero(1)])
    assert star(mirror, z, zb, 2) == NuSeries.from_function(z * zb, 2)
    one = ChartExpr.one(1)
    assert star(mirror, one, one, 2) == NuSeries.from_function(one, 2)


def test_parity_duality_disk(disk_omega_nu, d_disk_nu, p1):
    mirror = parity_transport(d_disk_nu)
    assert mirror.omega == d_disk_nu.omega.parity()
    assert mirror.r == weyl.parity_P(d_disk_nu.r)
    rng = Lcg(3)
    for i in range(3):
        f = random_polynomial(1, rng.split(i), max_degree=2, terms=3)
        g = random_polynomial(1, rng.split(60 + i), max_degree=2, terms=3)
        assert star(mirror, f, g, 3) == weyl.parity_P(star(d_disk_nu, g, f, 3))
    # transporting back recovers the original product data
    back = parity_transport(mirror)
    assert back.r == d_disk_nu.r and back.omega == d_disk_nu.omega


# -- the characterizing form ----------------------------------------------------------


def test_karabegov_flat(c1_flat, d_flat):
    form = karabegov_form(d_flat, 3)
    assert form == FormSeries(1, [(0, c1_flat.omega)])


def test_karabegov_disk(disk_omega_nu, d_disk_nu):
    form = karabegov_form(d_disk_nu, 3)
    omega = disk_omega_nu.omega
    assert form == FormSeries(1, [(0, omega), (1, omega)])


def test_karabegov_u_relations_flat(c1_flat, d_flat, p1):
    """The local function behind the extraction on the flat chart."""
    u = p1("(1/2)*i*zb1")
    z = p1("z1")
    comm = star(d_flat, u, z, 2) - star(d_flat, z, u, 2)
    assert comm == NuSeries([ChartExpr.zero(1), p1("-1"), ChartExpr.zero(1)])
    f = p1("z1^2*zb1 + z1")
    got = star(d_flat, f, u, 2)
    want = NuSeries([f * u, f.differentiate(0), ChartExpr.zero(1)])
    assert got == want


def test_karabegov_antiwick_mirror(d_flat, d_disk_nu, c1_flat, disk_omega_nu):
    mirror_flat = parity_transport(d_flat)
    assert karabegov_form(mirror_flat, 3) == FormSeries(1, [(0, c1_flat.omega)])
    mirror_disk = parity_transport(d_disk_nu)
    omega = disk_omega_nu.omega
    assert karabegov_form(mirror_disk, 3) == \
        FormSeries(1, [(0, omega), (1, omega.scale(-1))])


def test_karabegov_polynomial_potential(c2_flat):
    """A type (1,1) two-form with polynomial coefficients that is not a
    multiple of the fundamental form still admits an exact extraction."""
    om = FormSeries(2, [(1, TwoForm(2, hm={(0, 0): parse("z2*zb2", 2),
                                           (1, 1): parse("z1*zb1", 2),
                                           (0, 1): parse("z2*zb1", 2),
                                           (1, 0): parse("z1*zb2", 2)}))])
    assert om.is_closed()
    data = FedosovData("wick", c2_flat, K=8, omega=om)
    form = karabegov_form(data, 3)
    assert form == FormSeries(2, [(0, c2_flat.omega)] + om.items())


def test_karabegov_requires_gradient(c1_flat):
    bare = type(c1_flat)(
        c1_flat.n, c1_flat.metric, c1_flat.inverse_metric, c1_flat.factor_base,
        None, None, name="bare")
    data = FedosovData("wick", bare, K=6)
    with pytest.raises(FedosovError):
        karabegov_form(data, 2)


def test_karabegov_requires_wick_conditions(c2_flat_omega20):
    data = FedosovData("wick", c2_flat_omega20, K=6)
    with pytest.raises(FedosovError):
        karabegov_form(data, 2)


# -- Hermiticity ----------------------------------------------------------------------


def test_hermitian_flat(d_flat):
    assert hermitian_check(d_flat, 2).passed


def test_hermitian_imaginary_form(disk_omega_inu):
    data = FedosovData("wick", disk_omega_inu, K=6)
    assert hermitian_check(data, 2).passed


def test_hermitian_real_form_fails_consistently(disk_omega_nu):
    data = FedosovData("wick", disk_omega_nu, K=6)
    report = hermitian_check(data, 2)
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["structural: conj(Omega) = Omega"]
    assert not by_name["behavioral: conj(f*g) = conj(g) * conj(f)"]
    assert by_name["criteria agree"]


# -- differential order -----------------------------------------------------------------


def test_vey_order_disk(disk_omega_nu):
    data = FedosovData("wick", disk_omega_nu, K=6)
    report = vey_order_check(data, 2)
    assert report.passed


def test_vey_constant_argument(d_flat, p1):
    one = ChartExpr.one(1)
    for r in (1, 2, 3):
        assert star(d_flat, p1("z1^2*zb1"), one, 3).coeffs[r].is_zero()


# -- separation of variables --------------------------------------------------------------


def test_separation_examples(d_flat, p1):
    z, zb = p1("z1"), p1("zb1")
    got = separation_product(d_flat, zb, z, 2)
    assert got.param == "lambda"
    assert got == NuSeries([z * zb, p1("2"), ChartExpr.zero(1)], param="lambda")
    assert separation_product(d_flat, z, zb, 2) == \
        NuSeries.from_function(z * zb, 2, param="lambda")
    f = p1("z1*zb1")
    assert separation_product(d_flat, ChartExpr.one(1), f, 2) == \
        NuSeries.from_function(f, 2, param="lambda")


def test_separation_property_disk(d_disk_nu, p1):
    z, zb = p1("z1"), p1("zb1")
    g = p1("z1*zb1 + zb1")
    for h in (z, z ** 2):
        assert separation_product(d_disk_nu, h, g, 3) == \
            NuSeries.from_function(h * g, 3, param="lambda")
    for h in (zb, zb ** 3):
        assert separation_product(d_disk_nu, g, h, 3) == \
            NuSeries.from_function(g * h, 3, param="lambda")


# -- transport to the Weyl kind --------------------------------------------------------------


def test_weyl_transport(disk, p1):
    data = FedosovData("wick", disk, K=6)
    transported = weyl_transport(data)
    assert transported.kind == "weyl"
    assert transported.r == weyl.fib_equiv_S(data.r, disk, "inverse")
    z, zb = p1("z1"), p1("zb1")
    for f, g in ((z, zb), (zb, z * zb)):
        lhs = weyl_transport_map(transported, star(transported, f, g, 2), 2)
        rhs = star_series(data, weyl_transport_map(transported, f, 2),
                          weyl_transport_map(transported, g, 2), 2)
        assert lhs == rhs
