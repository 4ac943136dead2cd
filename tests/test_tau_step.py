"""The one-pass tau step against the composed operators it fuses.

Each part of tau(f) must equal delta_inv(nabla x_k - sum_l (1/nu)
ad(r_{l+2}) x_{k-l}) computed with the public Weyl-algebra operators from
the parts below it, and the series must be D-flat.  The series `star`
reads, cut at weight N, must be the full series without its terms of
weight p + |m| above N.
"""

import pytest

from wickstar import weyl
from wickstar.expr import GaussianRational, parse
from wickstar.fedosov import (
    ContractViolation,
    FedosovData,
    FedosovError,
    _raised_entries,
    _tau_key,
    fedosov_D,
    tau,
)
from wickstar.weyl import WeylElement

CHARTS = ("c2_flat_omega20", "c2_flat_skew", "disk_omega_inu", "cp1_omega_nu")
K = 6

def _function(chart):
    if chart.n == 1:
        return parse("z1^2*zb1 + i*zb1 - 3", 1, chart.factor_base)
    return parse("z1^2*zb2 + zb1^2*z2^2 - i*z2 + z1*zb2", 2, chart.factor_base)


def _composed_parts(data, f):
    """The parts of tau(f) by the composed operators, one pass each."""
    chart, conn, kind = data.chart, data.conn, data.kind
    parts = [WeylElement.scalar(f, truncation=data.K)]
    for k in range(data.K):
        bracket = weyl.nabla(parts[k], chart, conn)
        for l in range(k):
            rp = data.r_parts.get(l + 2)
            if rp is not None:
                bracket = bracket - weyl.ad_over_nu(rp, parts[k - l], kind, chart, None)
        parts.append(weyl.delta_inv(bracket).truncate(data.K))
    return parts


def _check_against_composition(data, f):
    tf = tau(data, f)
    parts = data.tau_cache[_tau_key(f)]
    want = _composed_parts(data, f)
    assert len(parts) == len(want) == data.K + 1
    for k, (got, expected) in enumerate(zip(parts, want)):
        assert got == expected, f"part {k}"
        assert got.truncation == expected.truncation
    assert fedosov_D(data, tf).is_zero()
    return parts


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", CHARTS)
def test_tau_step_matches_the_composed_operators(request, name, kind):
    chart = request.getfixturevalue(name)
    data = FedosovData(kind, chart, K=K)
    parts = _check_against_composition(data, _function(chart))
    # the check is not vacuous: the series reaches past the derivatives of
    # order 2, and where r is not zero, its tables act
    assert not parts[3].is_zero()
    if data.r_parts:
        assert any(data._entry.ad_ops.values())


@pytest.mark.parametrize("kind", weyl.KINDS)
def test_tau_step_matches_the_composed_operators_on_ball2(ball2, kind):
    gamma = ball2.connection.christoffel
    assert any(not gamma[a][k][l].is_zero()
               for a in range(2) for k in range(2) for l in range(2) if l != a)
    data = FedosovData(kind, ball2, K=4)
    _check_against_composition(data, _function(ball2))
    assert any(data._entry.ad_ops.values())


@pytest.mark.parametrize("name", ("c2_flat_omega20", "disk_omega_inu"))
def test_tau_tables_are_built_once_per_key(request, name):
    """The nabla tables live in the chart's geometry entry and the ad(r)
    tables in the Fedosov entry of the store: a second tau, and a second
    FedosovData of the same value, read the same table entries."""
    chart = request.getfixturevalue(name)
    data = FedosovData("weyl", chart, K=K)
    f = _function(chart)
    tf = tau(data, f)
    nabla_table, ad_table = chart._derived("nabla_ops"), data._entry.ad_ops
    assert nabla_table or ad_table
    nabla_ops, ad_ops = dict(nabla_table), dict(ad_table)
    data.tau_cache.clear()
    assert tau(data, f) == tf
    again = FedosovData("weyl", chart, K=K)
    assert tau(again, f) == tf
    assert again._entry is data._entry
    assert chart._derived("nabla_ops") is nabla_table
    assert nabla_table.keys() == nabla_ops.keys()
    assert ad_table.keys() == ad_ops.keys()
    assert all(nabla_table[m] is entry for m, entry in nabla_ops.items())
    assert all(ad_table[key] is entry for key, entry in ad_ops.items())


def _weight(key):
    p, m, _ = key
    return p + sum(m)


def _check_weight_cut(data, f, N):
    """tau cut at weight N is the full tau to degree 2N restricted to the
    terms of weight <= N, and the cut reaches N: a cut one lower fails."""
    cut = tau(data, f, 2 * N, N)
    full = tau(data, f, 2 * N)
    want = {key: c for key, c in full.terms.items() if _weight(key) <= N}
    assert max(map(_weight, cut.terms)) == N
    assert cut.terms.keys() == want.keys()
    assert all(cut.terms[key] == c for key, c in want.items())
    assert cut.truncation == full.truncation == 2 * N
    assert any(_weight(key) > N for key in full.terms)


@pytest.mark.parametrize("kind", weyl.KINDS)
@pytest.mark.parametrize("name", CHARTS)
def test_tau_cut_at_a_weight_is_the_full_tau_restricted(request, name, kind):
    chart = request.getfixturevalue(name)
    f = _function(chart)
    for N in range(1, (K - 2) // 2 + 1):
        # the cut series first, so that the full one cannot be served from it
        data = FedosovData(kind, chart, K=K)
        _check_weight_cut(data, f, N)
        _check_against_composition(data, f)
        assert {_tau_key(f), (_tau_key(f), N)} <= data.tau_cache.keys()


@pytest.mark.parametrize("kind", weyl.KINDS)
def test_tau_cut_at_a_weight_on_ball2(ball2, kind):
    data = FedosovData(kind, ball2, K=4)
    _check_weight_cut(data, _function(ball2), 1)


def test_tau_refuses_a_negative_weight(disk):
    data = FedosovData("wick", disk, K=4)
    with pytest.raises(FedosovError):
        tau(data, parse("z1", 1), 2, -1)


def test_table_entries_refuse_a_term_without_one_antisymmetric_symbol():
    """A table entry moves the one antisymmetric symbol of each term of an
    operator image into its symmetric word, which the division by |sym'|
    and the weight cut rely on; a term with none or with two is refused."""
    for asym in (0, 0b11):
        image = WeylElement.from_terms(1, [(0, (1, 0), asym, parse("1", 1))])
        with pytest.raises(ContractViolation, match="antisymmetric degree other than 1"):
            _raised_entries(image, lambda p, sym: sym)
    image = WeylElement.from_terms(1, [(0, (1, 0), 0b10, parse("2", 1))])
    assert _raised_entries(image, lambda p, sym: sym) == [((1, 1), GaussianRational(2))]
