"""Fedosov engine: recursion, derivation, Taylor series, star products."""

from fractions import Fraction

import pytest

from wickstar import weyl
from wickstar.chart import FormSeries, OneForm, TwoForm, load_chart
from wickstar.expr import ChartExpr, GaussianRational, parse
from wickstar.fedosov import (
    ContractViolation,
    FedosovData,
    FedosovError,
    _projected_tau,
    closed_form_flat,
    compute_r_via_fixed_point,
    equivalence_A_h,
    fedosov_D,
    fixed_point,
    star,
    star_series,
    star_via_projections,
    tau,
)
from wickstar.sampling import Lcg, random_polynomial
from wickstar.weyl import NuSeries, WeylElement


@pytest.fixture(scope="module")
def d_flat(c1_flat):
    return FedosovData("wick", c1_flat, K=8)


@pytest.fixture(scope="module")
def d_disk(disk):
    return FedosovData("wick", disk, K=8)


# -- fixed point utility -------------------------------------------------------


def test_fixed_point_constant_map():
    const = WeylElement.scalar(parse("z1", 1), truncation=6)
    assert fixed_point(lambda a: const, WeylElement.zero(1, 6), 6) == const


def test_fixed_point_taylor_map(c1_flat):
    conn = c1_flat.connection
    source = WeylElement.sym_generator(1, 0, truncation=6)

    def step(a):
        return (weyl.delta_inv(weyl.nabla(a, c1_flat, conn)) + source).truncate(6)

    got = fixed_point(step, WeylElement.zero(1, 6), 6)
    # two hand iterations: dz is already stationary on a flat chart
    assert got == source


def test_fixed_point_identity_rejected():
    with pytest.raises(ContractViolation):
        fixed_point(lambda a: a, WeylElement.zero(1, 6), 6)


def test_fixed_point_non_stationary_rejected():
    one = WeylElement.unit(1, 6)
    with pytest.raises(ContractViolation):
        fixed_point(lambda a: a + one, WeylElement.zero(1, 6), 6)


def test_fixed_point_probe_propagates_non_engine_errors():
    start = WeylElement.zero(1, 6)

    def broken(a):
        if a != start:
            raise TypeError("construction bug")
        return a

    with pytest.raises(TypeError):
        fixed_point(broken, start, 6)


def test_fixed_point_probe_tolerates_engine_errors():
    start = WeylElement.zero(1, 6)

    def partial(a):
        if a != start:
            raise FedosovError("outside the domain of the map")
        return a

    assert fixed_point(partial, start, 6) == start


# -- the connection element ------------------------------------------------------


def test_r_vanishes_flat(d_flat):
    assert d_flat.r.is_zero()


def test_r_disk_lowest_component(disk, d_disk):
    R = disk.curvature_data.curvature_element
    assert d_disk.r.min_deg() == 3
    assert d_disk.r.component(3) == weyl.delta_inv(R.truncate(8))


def test_r_c2_closed_form(c2_flat_omega20):
    data = FedosovData("wick", c2_flat_omega20, K=6)
    half = GaussianRational(Fraction(1, 2))
    want = WeylElement.from_terms(2, [
        (1, (1, 0, 0, 0), 2, ChartExpr.constant(2, half)),
        (1, (0, 1, 0, 0), 1, ChartExpr.constant(2, -half)),
    ], 6)
    assert data.r == want
    assert not weyl.project(data.r, "pi_z").is_zero()


def test_r_seed_independence(d_disk, disk):
    R = disk.curvature_data.curvature_element
    assert compute_r_via_fixed_point(d_disk) == d_disk.r
    assert compute_r_via_fixed_point(d_disk, seed=weyl.delta_inv(R.truncate(8))) == d_disk.r


def test_s_validation(c1_flat):
    bad = WeylElement.scalar(parse("z1", 1))  # scalar part nonzero
    with pytest.raises(FedosovError):
        FedosovData("wick", c1_flat, K=6, s=bad)
    low = WeylElement.sym_generator(1, 0)  # total degree 1
    with pytest.raises(FedosovError):
        FedosovData("wick", c1_flat, K=6, s=low)
    sym1 = WeylElement.sym_generator(1, 0).mul_nu(1)  # Deg 3 but deg_s = 1
    with pytest.raises(FedosovError):
        FedosovData("wick", c1_flat, K=6, s=sym1)
    FedosovData("wick", c1_flat, K=6, s=sym1, allow_sym_degree_one=True)


def test_omega_validation(c2_flat):
    not_closed = FormSeries(2, [(1, TwoForm(2, hm={(0, 1): parse("zb1", 2)}))])
    with pytest.raises(FedosovError):
        FedosovData("wick", c2_flat, K=6, omega=not_closed)


# -- derivation and Taylor series ---------------------------------------------------


def test_D_examples(d_flat, p1):
    one = WeylElement.unit(1, 8)
    assert fedosov_D(d_flat, one).is_zero()
    tz = tau(d_flat, p1("z1"))
    assert fedosov_D(d_flat, tz).is_zero()


def test_D_squares_to_zero(d_disk, disk):
    rng = Lcg(5)
    from wickstar.sampling import random_weyl_element

    for i in range(4):
        e = random_weyl_element(disk, rng.split(i), max_degree=5, truncation=8)
        assert fedosov_D(d_disk, fedosov_D(d_disk, e)).is_zero()


def test_tau_examples(d_flat, p1):
    assert tau(d_flat, p1("1")) == WeylElement.unit(1, 8)
    z = p1("z1")
    assert tau(d_flat, z) == WeylElement.scalar(z, truncation=8) + \
        WeylElement.sym_generator(1, 0, truncation=8)
    zzb = p1("z1*zb1")
    want = WeylElement.from_terms(1, [
        (0, (0, 0), 0, zzb),
        (0, (1, 0), 0, p1("zb1")),
        (0, (0, 1), 0, p1("z1")),
        (0, (1, 1), 0, ChartExpr.one(1)),
    ], 8)
    assert tau(d_flat, zzb) == want


def test_tau_properties(d_disk, p1):
    for text in ("z1", "zb1^2", "z1^2*zb1 + i*z1"):
        f = p1(text)
        tf = tau(d_disk, f)
        assert weyl.to_nu_series(weyl.sigma(tf), 0)[0] == f
        assert fedosov_D(d_disk, tf).is_zero()


def test_tau_cached(d_disk, p1):
    f = p1("z1 + zb1")
    assert tau(d_disk, f) is tau(d_disk, f)


def test_tau_cache_hit_for_equal_value_built_differently(disk, d_disk):
    base = disk.factor_base
    f = parse("z1/(1 - z1*zb1)", 1, base)
    g = parse("z1 - z1^2*zb1", 1, base) * parse("1/(1 - z1*zb1)^2", 1, base)
    tf = tau(d_disk, f)
    size = len(d_disk.tau_cache)
    assert tau(d_disk, g) is tf
    assert len(d_disk.tau_cache) == size


# -- the Taylor series cut at a total degree ------------------------------------

DEGREE_CHARTS = ("disk", "cp1_omega_nu", "c2_flat_omega20")
DEGREE_K = 8


def _degree_data(request, name, kind):
    chart = request.getfixturevalue(name)
    if chart.n == 1:
        f = parse("z1^2*zb1 + i*zb1 - 3", 1, chart.factor_base)
    else:
        f = parse("z1^2*zb2 + zb1^2*z2^2 - i*z2", 2, chart.factor_base)
    return FedosovData(kind, chart, K=DEGREE_K), f


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", DEGREE_CHARTS)
def test_tau_cut_is_the_truncated_series(request, name, kind):
    data, f = _degree_data(request, name, kind)
    full = tau(data, f)
    for k in range(DEGREE_K + 1):
        cut = tau(data, f, k)
        assert cut == full.truncate(k)
        assert cut.truncation == k
        assert tau(data, f, k) is cut
    assert tau(data, f, DEGREE_K) is full


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", DEGREE_CHARTS)
def test_tau_cut_independent_of_request_order(request, name, kind):
    data, f = _degree_data(request, name, kind)
    full_first = tau(data, f)
    low_after = tau(data, f, 3)
    data.tau_cache.clear()
    low_first = tau(data, f, 3)
    (parts, _), = data.tau_cache.values()
    assert len(parts) == 4
    full_after = tau(data, f)
    (parts, _), = data.tau_cache.values()
    assert len(parts) == DEGREE_K + 1
    assert low_first == low_after
    assert full_first == full_after
    assert fedosov_D(data, low_first).is_zero()


def test_degree_outside_the_truncation_rejected(d_disk, p1):
    z, zb = p1("z1"), p1("zb1")
    with pytest.raises(FedosovError):
        tau(d_disk, z, d_disk.K + 1)
    with pytest.raises(FedosovError):
        tau(d_disk, z, -1)
    N = d_disk.K // 2
    with pytest.raises(FedosovError):
        star_via_projections(d_disk, z, zb, N)
    transform = equivalence_A_h(d_disk, d_disk, FormSeries.zero(1), 1)
    with pytest.raises(FedosovError):
        transform.apply(z, N)


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", DEGREE_CHARTS)
def test_projected_tau_cut_at_twice_the_order(request, name, kind):
    data, f = _degree_data(request, name, kind)
    N = (DEGREE_K - 2) // 2
    for hol, selector in ((True, "pi_z"), (False, "pi_zbar")):
        if not weyl.project(data.r, selector).is_zero():
            with pytest.raises(FedosovError):
                _projected_tau(data, f, hol, 2 * N)
            continue
        full = _projected_tau(data, f, hol)
        assert _projected_tau(data, f, hol, 2 * N) == full.truncate(2 * N)
        if kind == "wick":
            assert full == weyl.project(tau(data, f), selector)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the gate pi r = 0 is necessary but not sufficient: on curved charts it "
    "passes for weyl and antiwick, where the reduced recursion does not give "
    "the projected Taylor series"))
@pytest.mark.parametrize("kind", ("weyl", "antiwick"))
def test_projected_tau_gate_is_not_sufficient(disk, kind):
    data = FedosovData(kind, disk, K=4)
    f = parse("z1^2*zb1 + i*zb1 - 3", 1, disk.factor_base)
    for hol, selector in ((True, "pi_z"), (False, "pi_zbar")):
        assert weyl.project(data.r, selector).is_zero()
        assert _projected_tau(data, f, hol) == weyl.project(tau(data, f), selector)


def _exp_ad_sigma_full(data, h, f, N, sign):
    """sigma(exp(+-(1/nu) ad(h)) tau(f)) from the full series, every degree
    up to K - 1 carried along."""
    x = tau(data, f)
    out_trunc = data.K - 1
    total = weyl.sigma(x.truncate(out_trunc))
    term, j = x, 0
    while not term.is_zero():
        j += 1
        term = weyl.ad_over_nu(h, term, data.kind, data.chart, out_trunc).scale(
            GaussianRational(Fraction(sign, j)))
        total = total + weyl.sigma(term)
    return weyl.to_nu_series(total, N)


def _check_transform_against_full(transform, fs, N):
    for f in fs:
        assert transform.apply(f, N) == _exp_ad_sigma_full(
            transform.data, transform.h, f, N, 1)
        assert transform.apply_inverse(f, N) == _exp_ad_sigma_full(
            transform.data_prime, transform.h, f, N, -1)


def test_equivalence_apply_cut_between_forms(c1_flat, p1):
    d0 = FedosovData("wick", c1_flat, K=6)
    omega_p = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    d1 = FedosovData("wick", c1_flat, K=6, omega=omega_p)
    C = FormSeries(1, [(1, OneForm(1, hol={0: p1("zb1")}))])
    transform = equivalence_A_h(d0, d1, C, 2)
    assert not transform.h.is_zero()
    _check_transform_against_full(
        transform, [p1("z1"), p1("zb1"), p1("z1^2*zb1 + 2*zb1^2")], 2)


@pytest.mark.parametrize("kind", weyl.KINDS)
def test_equivalence_apply_cut_on_curved_chart(disk, kind):
    data = FedosovData(kind, disk, K=4)
    mixed = WeylElement.from_terms(1, [(0, (2, 1), 0, ChartExpr.one(1))], 4)
    data_s = FedosovData(kind, disk, K=4, s=mixed)
    transform = equivalence_A_h(data, data_s, FormSeries.zero(1), 1)
    assert not transform.h.is_zero()
    _check_transform_against_full(
        transform, [parse(t, 1, disk.factor_base) for t in ("z1", "zb1", "z1*zb1^2")], 1)


# -- the star product -----------------------------------------------------------


def test_star_flat_examples(d_flat, p1):
    z, zb = p1("z1"), p1("zb1")
    assert star(d_flat, z, zb, 2) == NuSeries([z * zb, p1("-2*i"), ChartExpr.zero(1)])
    assert star(d_flat, zb, z, 2) == NuSeries.from_function(z * zb, 2)
    got = star(d_flat, z ** 2, zb ** 2, 3)
    want = NuSeries([(z ** 2) * (zb ** 2), p1("-8*i*z1*zb1"), p1("-8"), ChartExpr.zero(1)])
    assert got == want


def test_star_truncation_guard(d_flat, p1):
    with pytest.raises(FedosovError):
        star(d_flat, p1("z1"), p1("zb1"), 4)  # needs K >= 10


def test_star_unital_and_bilinear(d_disk, p1):
    one = ChartExpr.one(1)
    f = p1("z1^2*zb1 - i")
    assert star(d_disk, one, f, 3) == NuSeries.from_function(f, 3)
    assert star(d_disk, f, one, 3) == NuSeries.from_function(f, 3)
    g, h = p1("zb1"), p1("z1*zb1")
    lhs = star(d_disk, f, g + h, 3)
    assert lhs == star(d_disk, f, g, 3) + star(d_disk, f, h, 3)
    scaled = star(d_disk, f.scale(GaussianRational(0, 2)), g, 3)
    assert scaled == star(d_disk, f, g, 3).scale(GaussianRational(0, 2))


def test_closed_form_examples(c1_flat, p1):
    z, zb = p1("z1"), p1("zb1")
    assert closed_form_flat(c1_flat, z, zb, "wick", 1) == NuSeries([z * zb, p1("-2*i")])
    assert closed_form_flat(c1_flat, zb, z, "antiwick", 1) == NuSeries([z * zb, p1("2*i")])
    f = p1("z1^2*zb1 + 3*z1")
    assert closed_form_flat(c1_flat, f, ChartExpr.one(1), "wick", 2) == \
        NuSeries.from_function(f, 2)


def test_closed_form_requires_flat(disk, p1):
    with pytest.raises(FedosovError):
        closed_form_flat(disk, p1("z1"), p1("zb1"), "wick", 1)


def test_star_matches_oracle_samples(c1_flat, c2_flat):
    rng = Lcg(17)
    for chart in (c1_flat, c2_flat):
        for kind in ("wick", "antiwick"):
            data = FedosovData(kind, chart, K=8)
            for i in range(4):
                f = random_polynomial(chart.n, rng.split(i))
                g = random_polynomial(chart.n, rng.split(100 + i))
                assert star(data, f, g, 3) == closed_form_flat(chart, f, g, kind, 3)


def test_star_series_bilinear_extension(d_disk, p1):
    """The series extension agrees with the subalgebra product: tau
    applied to f*g reproduces tau(f).tau(g) coefficient-wise."""
    f, g, h = p1("z1"), p1("zb1 + z1"), p1("z1*zb1")
    N = 3
    fg = star(d_disk, f, g, N)
    lhs = star_series(d_disk, fg, NuSeries.from_function(h, N), N)
    inner = weyl.circ(tau(d_disk, f), tau(d_disk, g), "wick", d_disk.chart, trunc=2 * N)
    rhs = weyl.to_nu_series(
        weyl.sigma_circ(inner, tau(d_disk, h), "wick", d_disk.chart, N), N)
    assert lhs == rhs


def test_tau_of_star_is_product(d_disk, p1):
    """tau intertwines the star product with the fibrewise product: the
    elementwise product of two Taylor series is the Taylor series of their
    star product, degree by degree up to the truncation margin."""
    f, g = p1("z1"), p1("z1*zb1")
    K = d_disk.K
    prod = weyl.circ(tau(d_disk, f), tau(d_disk, g), "wick", d_disk.chart)
    fg = star(d_disk, f, g, (K - 2) // 2)
    rebuilt = WeylElement.zero(1, K)
    for p, c in enumerate(fg.coeffs):
        if not c.is_zero():
            rebuilt = rebuilt + tau(d_disk, c).mul_nu(p)
    assert rebuilt.truncate(K - 2) == prod.truncate(K - 2)


def test_first_order_commutator_is_poisson(d_disk, disk, p1):
    from wickstar.chart import poisson_bracket

    rng = Lcg(23)
    for i in range(3):
        f = random_polynomial(1, rng.split(i), max_degree=2, terms=3)
        g = random_polynomial(1, rng.split(50 + i), max_degree=2, terms=3)
        s1 = star(d_disk, f, g, 1)
        s2 = star(d_disk, g, f, 1)
        assert s1.coeffs[1] - s2.coeffs[1] == poisson_bracket(disk, f, g)
        assert s1.coeffs[0] == f * g


# -- a factor declared in the chart file ------------------------------------------


@pytest.fixture(scope="module")
def c1_declared():
    """c1_flat with z1 + 2 and its conjugate declared as base factors."""
    doc = {"name": "c1_declared", "dimension": 1, "metric": [["1"]],
           "inverse_metric": [["1"]], "factor_base": ["z1 + 2", "zb1 + 2"],
           "potential_gradient": ["(1/2)*i*zb1"]}
    return load_chart(doc)


@pytest.mark.parametrize("kind", ("wick", "antiwick"))
def test_star_with_a_declared_factor_matches_the_closed_form(c1_declared, kind):
    base = c1_declared.factor_base
    f, g = parse("1/(z1+2)", 1, base), parse("zb1^2", 1, base)
    data = FedosovData(kind, c1_declared, K=8)
    got = star(data, f, g, 3)
    assert got == closed_form_flat(c1_declared, f, g, kind, 3)
    for x in got.coeffs:
        assert parse(x.serialize(), 1, base).serialize() == x.serialize()


def test_derivatives_raise_a_declared_factor_by_one(c1_declared):
    """The k-th derivative of 1/(z1+2) has denominator (z1+2)^(k+1)."""
    base = c1_declared.factor_base
    x = parse("1/(z1+2)", 1, base)
    for k in range(1, 6):
        x = x.differentiate(0)
        assert x.den == parse(f"(z1+2)^{k + 1}", 1).num
        assert x.num.is_constant()
