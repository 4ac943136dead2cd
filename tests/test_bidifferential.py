"""The exact table of the star product's coefficients.

`bidifferential` must reproduce `star` on sampled pairs, and its verdicts
on the bundled charts and the unit ball in C^2 are pinned: every product
is of Vey type and vanishes on constants, wick data is of Wick type,
antiwick data of the mirror type and weyl data of neither, except on
c2_flat_omega20, whose form has a dz1^dz2 part.
"""

import pytest

from wickstar import fedosov as fedosov_module, weyl
from wickstar.expr import ChartExpr
from wickstar.fedosov import (
    FedosovData,
    FedosovError,
    _applied,
    bidifferential,
    separation_product,
    star,
    vey_order_check,
)
from wickstar.sampling import Lcg, random_polynomial

from conftest import bundled

BUNDLED = ("c1_flat", "c2_flat", "c2_flat_omega20", "disk", "disk_omega_nu",
           "disk_omega_inu", "cp1", "cp1_omega_nu")


def _type(table, n):
    """wick when every C_r with r >= 1 differentiates its first argument
    along the z alone and its second along the zb alone, antiwick for the
    mirror, neither otherwise."""
    higher = [(I, J) for r, I, J in table if r]
    if all(not any(I[n:]) and not any(J[:n]) for I, J in higher):
        return "wick"
    if all(not any(I[:n]) and not any(J[n:]) for I, J in higher):
        return "antiwick"
    return "neither"


@pytest.mark.parametrize("name,N", [(name, 2) for name in BUNDLED] + [("disk", 3)])
def test_the_table_reproduces_star(name, N):
    chart = bundled(name)
    rng = Lcg(2300 + N)
    for kind in weyl.KINDS:
        data = FedosovData(kind, chart, 2 * N + 2)
        table = bidifferential(data, N)
        assert all(not c.is_zero() for c in table.values())
        assert list(table) == sorted(table)
        for _ in range(2):
            f = random_polynomial(chart.n, rng)
            g = random_polynomial(chart.n, rng)
            assert _applied(table, f, g, N) == star(data, f, g, N), kind


def test_pinned_verdicts(ball2):
    """The kind, Vey type (|I|, |J| <= r) and C_r(f, 1) = C_r(1, g) = 0 of
    every product at N = 2."""
    got = {}
    for chart in [bundled(name) for name in BUNDLED] + [ball2]:
        for kind in weyl.KINDS:
            table = bidifferential(FedosovData(kind, chart, 6), 2)
            vey = all(sum(I) <= r and sum(J) <= r for r, I, J in table)
            null = all(not r or (any(I) and any(J)) for r, I, J in table)
            got[chart.name, kind] = (_type(table, chart.n), vey, null)
    want = {(name, kind): ("neither" if kind == "weyl" or name == "c2_flat_omega20" else kind,
                           True, True)
            for name in BUNDLED + ("ball2",) for kind in weyl.KINDS}
    assert got == want


@pytest.mark.parametrize("kind", ["weyl", "antiwick"])
def test_separation_product_refuses_data_not_of_wick_type(disk, kind):
    data = FedosovData(kind, disk, 6)
    z, zb = ChartExpr.variable(1, 0), ChartExpr.variable(1, 1)
    with pytest.raises(FedosovError, match="does not separate the variables"):
        separation_product(data, z, zb, 2)


def test_failed_checks_name_the_coefficient(disk, monkeypatch):
    """A coefficient outside the Vey bound or on a constant second argument
    fails its check, and the detail names its (I, J)."""
    data = FedosovData("wick", disk, 6)
    one = ChartExpr.one(1)
    table = {(0, (0, 0), (0, 0)): one, (1, (2, 0), (0, 1)): one, (2, (1, 0), (0, 0)): one}
    monkeypatch.setattr(fedosov_module, "bidifferential", lambda d, N: table)
    report = vey_order_check(data, 2)
    failed = {c.name: c.detail for c in report.failures()}
    assert failed == {
        "C_1 has order <= (1,1) in the first argument": "r=1, I=(2, 0), J=(0, 1)",
        "C_r(f, 1) = 0 for r >= 1": "r=2, I=(1, 0)",
    }
    with pytest.raises(FedosovError, match=r"C_2 at I=\(1, 0\), J=\(0, 0\)"):
        separation_product(data, one, one, 2)
