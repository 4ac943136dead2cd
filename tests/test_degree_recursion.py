"""The degree recursions of the projected Taylor series and of the
equivalence generator h against the fixed-point maps they replace.

Each oracle below is the whole-element map of the same equation, solved by
`fixed_point`; the degree recursion must give the same element.
"""

import pytest

from wickstar import weyl
from wickstar.chart import FormSeries, OneForm, TwoForm
from wickstar.expr import ChartExpr, parse
from wickstar.fedosov import (
    FedosovData,
    FedosovError,
    _bernoulli_series_apply,
    equivalence_A_h,
    fixed_point,
    projected_tau,
)
from wickstar.weyl import WeylElement

K = 4


def _function(chart):
    if chart.n == 1:
        return parse("z1^2*zb1 + i*zb1 - 3", 1, chart.factor_base)
    return parse("z1^2*zb2 + zb1^2*z2^2 - i*z2 + z1*zb2", 2, chart.factor_base)


def _projected_tau_oracle(data, f, hol):
    """x = f + delta_half_inv(nabla_half x +- (1/nu) pi(x.r or r.x)) over the
    whole element, up to the truncation."""
    selector = "pi_z" if hol else "pi_zbar"
    top = data.K
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


def _h_oracle(data, data_prime, C):
    """h = C x 1 + delta_inv(nabla h - (1/nu) ad(r) h - B(h)(r' - r)) over
    the whole element, up to the truncation."""
    K = data.K
    chart, conn, kind = data.chart, data.conn, data.kind
    c_el = C.to_weyl_sym(truncation=K)
    rdiff = data_prime.r - data.r

    def step(h):
        inner = weyl.nabla(h, chart, conn).truncate(K - 1)
        inner = inner - weyl.ad_over_nu(data.r, h, kind, chart, K - 1)
        inner = inner - _bernoulli_series_apply(data, h, rdiff, K - 1)
        return (c_el + weyl.delta_inv(inner.with_truncation(None))).truncate(K)

    return fixed_point(step, c_el, K)


def test_projected_tau_matches_the_fixed_point_map(request):
    open_gates = 0
    for name in ("disk", "cp1_omega_nu", "ball2"):
        chart = request.getfixturevalue(name)
        f = _function(chart)
        for kind in weyl.KINDS:
            data = FedosovData(kind, chart, K=K)
            for hol, selector in ((True, "pi_z"), (False, "pi_zbar")):
                if not weyl.project(data.r, selector).is_zero():
                    with pytest.raises(FedosovError):
                        projected_tau(data, f, hol)
                    continue
                open_gates += 1
                got = projected_tau(data, f, hol)
                want = _projected_tau_oracle(data, f, hol)
                assert got == want, (name, kind, selector)
                assert got.truncation == want.truncation
                # the check is not vacuous: the series reaches the top degree
                assert got.max_deg() == K
    assert open_gates == 18


def _check_h(data, data_prime, C):
    transform = equivalence_A_h(data, data_prime, C, 1)
    want = _h_oracle(data, data_prime, C)
    assert not want.is_zero()
    assert transform.h == want
    assert transform.h.truncation == want.truncation


def test_h_matches_the_fixed_point_map_between_forms(c1_flat, p1):
    d0 = FedosovData("wick", c1_flat, K=6)
    omega_p = FormSeries(1, [(1, TwoForm(1, hm={(0, 0): ChartExpr.one(1)}))])
    d1 = FedosovData("wick", c1_flat, K=6, omega=omega_p)
    C = FormSeries(1, [(1, OneForm(1, hol={0: p1("zb1")}))])
    _check_h(d0, d1, C)


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", ("disk", "cp1_omega_nu"))
def test_h_matches_the_fixed_point_map_between_normalizations(request, name, kind):
    chart = request.getfixturevalue(name)
    s_mixed = WeylElement.from_terms(1, [(0, (2, 1), 0, ChartExpr.one(1))], K)
    data = FedosovData(kind, chart, K=K)
    data_s = FedosovData(kind, chart, K=K, s=s_mixed)
    _check_h(data, data_s, FormSeries.zero(1))


@pytest.mark.parametrize("name", ("c1_flat", "disk"))
def test_h_needs_a_one_form_series_from_nu_1(request, name):
    """A nu^0 part of C gives h a part of degree 1, and (1/nu) ad of it
    lowers the degree, so the degree recursion does not apply."""
    chart = request.getfixturevalue(name)
    data = FedosovData("wick", chart, K=K)
    C = FormSeries(1, [(0, OneForm(1, hol={0: ChartExpr.one(1)}))])
    assert C.d().is_zero()
    with pytest.raises(FedosovError, match="one-form series must start at nu"):
        equivalence_A_h(data, data, C, 1)
