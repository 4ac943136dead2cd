"""Chart loading, derived connection and curvature, fundamental form."""

import copy
import json
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from wickstar import weyl
from wickstar.chart import Chart, ChartError, load_chart, omega_form, poisson_bracket
from wickstar.cli import main
from wickstar.expr import parse


def test_flat_chart_loads(c1_flat):
    assert c1_flat.n == 1
    assert c1_flat.is_flat()


def test_non_hermitian_metric_rejected():
    doc = {"dimension": 1, "metric": [["z1"]], "inverse_metric": [["1/z1"]]}
    with pytest.raises(ChartError, match="Hermitian"):
        load_chart(doc)


def test_inverse_mismatch_rejected():
    doc = {"dimension": 1, "metric": [["1"]], "inverse_metric": [["2"]]}
    with pytest.raises(ChartError, match="inverse"):
        load_chart(doc)


def test_non_closed_omega_rejected():
    doc = {
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "inverse_metric": [["1", "0"], ["0", "1"]],
        "omega_series": [{"nu_power": 1, "form": {"dz1^dzb2": "zb1"}}],
    }
    with pytest.raises(ChartError, match="not closed"):
        load_chart(doc)


def test_bad_potential_gradient_rejected():
    doc = {
        "dimension": 1,
        "metric": [["1"]],
        "inverse_metric": [["1"]],
        "potential_gradient": ["zb1"],
    }
    with pytest.raises(ChartError, match="potential gradient"):
        load_chart(doc)


def test_omega_power_zero_rejected(c1_flat):
    doc = {
        "dimension": 1,
        "metric": [["1"]],
        "inverse_metric": [["1"]],
        "omega_series": [{"nu_power": 0, "form": {"dz1^dzb1": "1"}}],
    }
    with pytest.raises(ChartError, match="nu\\^1"):
        load_chart(doc)


def test_christoffel_flat(c2_flat):
    conn = c2_flat.connection
    assert all(
        conn.christoffel[m][k][l].is_zero()
        for m in range(2) for k in range(2) for l in range(2)
    )


def test_christoffel_disk(disk):
    assert disk.connection.christoffel[0][0][0] == parse("2*zb1/(1 - z1*zb1)", 1, disk.factor_base)


def test_christoffel_cp1(cp1):
    assert cp1.connection.christoffel[0][0][0] == parse("-2*zb1/(1 + z1*zb1)", 1, cp1.factor_base)


def test_curvature_flat(c1_flat):
    curv = c1_flat.curvature_data
    assert curv.curvature_element.is_zero()
    assert curv.ricci_form.is_zero()


def test_curvature_disk_value(disk):
    # the single lowered coefficient, pinned by nabla^2 = -(1/nu) ad(R)
    assert disk.curvature_data.rho[(0, 0, 0, 0)] == parse("2*i/(1 - z1*zb1)^4", 1, disk.factor_base)


def test_curvature_bianchi_and_ricci(disk, cp1):
    for chart in (disk, cp1):
        curv = chart.curvature_data
        R = curv.curvature_element
        assert weyl.delta(R).is_zero()
        assert weyl.nabla(R, chart, chart.connection).is_zero()
        assert weyl.delta_fib(R, chart) == curv.ricci_form.to_weyl()
        assert curv.ricci_form.is_closed()


def test_ricci_proportional_to_omega(disk, cp1):
    assert disk.curvature_data.ricci_form == disk.omega
    assert cp1.curvature_data.ricci_form == cp1.omega.scale(-2)


def test_omega_form_values(c1_flat, disk):
    flat_omega = omega_form(c1_flat)
    assert flat_omega[0b11] == parse("i/2", 1)
    disk_omega = omega_form(disk)
    assert disk_omega[0b11] == parse("i/(1 - z1*zb1)^2", 1, disk.factor_base)


def test_omega_closed_cp1(cp1):
    assert omega_form(cp1).is_closed()


def test_poisson_bracket_flat(c1_flat, p1):
    z, zb = p1("z1"), p1("zb1")
    assert poisson_bracket(c1_flat, z, zb) == p1("-2*i")
    assert poisson_bracket(c1_flat, z, z).is_zero()


def test_poisson_bracket_properties(disk, p1):
    f = p1("z1^2*zb1 + z1")
    g = p1("zb1^2 - i*z1")
    h = p1("z1*zb1")
    assert poisson_bracket(disk, f, g) == -poisson_bracket(disk, g, f)
    assert poisson_bracket(disk, f, f).is_zero()
    # Leibniz in the second argument
    assert poisson_bracket(disk, f, g * h) == \
        poisson_bracket(disk, f, g) * h + g * poisson_bracket(disk, f, h)


def test_omega_series_scalar_reference(disk_omega_nu, disk_omega_inu, disk):
    assert disk_omega_nu.omega_series.items()[0][1] == disk.omega
    assert disk_omega_inu.omega_series.items()[0][1] == disk.omega.scale(parse("i", 1).constant_value())


def test_omega_series_type(c2_flat_omega20):
    series = c2_flat_omega20.omega_series
    assert series.is_closed()
    assert not series.is_type_11()


def test_with_omega_shares_geometry(disk, disk_omega_nu):
    clone = disk.with_omega(disk_omega_nu.omega_series)
    assert clone.omega_series == disk_omega_nu.omega_series
    assert clone.connection is disk.connection


_DISK = {
    "dimension": 1,
    "metric": [["2/(1 - z1*zb1)^2"]],
    "inverse_metric": [["(1 - z1*zb1)^2/2"]],
    "factor_base": ["1 - z1*zb1"],
    "potential_gradient": ["i*zb1/(1 - z1*zb1)"],
}
# 1 + z1 is no base factor
_OUT_OF_BASE = "1/(1 + z1)"


@pytest.mark.parametrize("field, value, message", [
    ("factor_base", ["z1 - z1^2*zb1"], "has a monomial factor"),
    ("factor_base", ["1 - z1*zb1", "2*z1*zb1 - 2"], "repeats another entry"),
    ("factor_base", ["1 - z1*zb1", "(1 - z1*zb1)*(1 + z1*zb1)"], "divides another entry"),
    ("factor_base", ["z1 + 2"], "needs its conjugate 'zb1"),
    ("factor_base", [], "does not factor over the factor base"),
    ("inverse_metric", [[f"(1 - z1*zb1)^2/2*{_OUT_OF_BASE}"]], "does not factor"),
    ("potential_gradient", [f"i*zb1/(1 - z1*zb1)*{_OUT_OF_BASE}"], "does not factor"),
    ("omega_series", [{"nu_power": 1, "form": {"dz1^dzb1": _OUT_OF_BASE}}], "does not factor"),
], ids=["monomial-factor", "repeat", "divides", "conjugate", "metric", "inverse-metric",
        "potential-gradient", "omega-series"])
def test_factor_base_invariants_are_hard_errors(field, value, message, capsys):
    """Base entries have no monomial factor, neither repeat nor divide one
    another, and have their conjugates in the base; every denominator of
    the chart data factors over the base and the coordinates, with no
    residual."""
    doc = dict(_DISK, **{field: value})
    with pytest.raises(ChartError, match=message):
        load_chart(json.dumps(doc))
    assert _describe(json.dumps(doc)) == 1
    assert message in capsys.readouterr().err


def test_a_factor_the_numerator_cancels_may_lie_outside_the_base(disk):
    """(1 + z1)/(1 + z1) loads as 1: what the base does not cover divides
    the numerator, so the value has a denominator over the base."""
    doc = dict(_DISK, inverse_metric=[["(1 - z1*zb1)^2/2*(1 + z1)/(1 + z1)"]],
               potential_gradient=["i*zb1*(1 + z1)/((1 - z1*zb1)*(1 + z1))"])
    chart = load_chart(json.dumps(doc))
    assert chart.inverse_metric[0][0].serialize() == disk.inverse_metric[0][0].serialize()
    assert chart.potential_gradient[0].serialize() == disk.potential_gradient[0].serialize()


def _describe(doc_text):
    """Exit code of `describe` on a chart file holding `doc_text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chart.json")
        with open(path, "w") as fh:
            fh.write(doc_text)
        return main(["describe", "--chart", path])


@pytest.mark.parametrize("doc", [
    {"dimension": 1, "metric": 5, "inverse_metric": 5},
    {"dimension": 1, "metric": [[1]], "inverse_metric": [["1"]]},
    {"dimension": 1, "metric": [["1"]], "inverse_metric": [["1"]],
     "omega_series": [{"nu_power": 1, "form": {"dz1^dzb1": 3}}]},
    [1, 2],
    {"dimension": 1e999, "metric": [["1"]], "inverse_metric": [["1"]]},
    {"dimension": 1, "metric": [5], "inverse_metric": [["1"]]},
    {"dimension": 1, "metric": [["1"]], "inverse_metric": [["1"]], "factor_base": 5},
    {"dimension": 1, "metric": [["1"]], "inverse_metric": [["1"]], "omega_series": [{"nu_power": 1}]},
    {"name": 5, "dimension": 1, "metric": [["1"]], "inverse_metric": [["1"]]},
    {"dimension": 1.5, "metric": [["1"]], "inverse_metric": [["1"]]},
    {"dimension": True, "metric": [["1"]], "inverse_metric": [["1"]]},
    {"dimension": 1, "metric": [["1"]], "inverse_metric": [["1"]],
     "omega_series": [{"nu_power": 1.9, "form": "omega"}]},
], ids=repr)
def test_malformed_document_is_a_chart_error(doc, capsys):
    with pytest.raises(ChartError):
        load_chart(json.dumps(doc))
    assert _describe(json.dumps(doc)) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["disk", "disk_omega_nu", "c2_flat_omega20"])
def test_a_load_validates_once(name, monkeypatch):
    """A document with an `omega_series` is validated once, after the series
    is parsed, as a document without one is."""
    calls = []
    validate = Chart.validate
    monkeypatch.setattr(Chart, "validate", lambda self: calls.append(1) or validate(self))
    load_chart(str(resources.files("wickstar").joinpath(f"charts/{name}.json")))
    assert len(calls) == 1


def test_unreadable_chart_file_is_a_user_error(tmp_path, capsys):
    undecodable = tmp_path / "chart.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, undecodable):
        assert main(["describe", "--chart", str(path)]) == 1
        assert "cannot read chart file" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1", "0", "z1", "zb1", "i", "1/(1 - z1*zb1)^2", "omega", "i*omega"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(["dz1^dzb1", "dz1^dz1"]),
                      children, max_size=3),
    max_leaves=8,
)

_VALID = {
    "name": "fuzz",
    "dimension": 1,
    "metric": [["1"]],
    "inverse_metric": [["1"]],
    "factor_base": [],
    "potential_gradient": ["(1/2)*i*zb1"],
    "omega_series": [{"nu_power": 1, "form": {"dz1^dzb1": "1"}}],
}

_PATHS = [
    ("name",), ("dimension",), ("metric",), ("metric", 0), ("metric", 0, 0),
    ("inverse_metric",), ("inverse_metric", 0, 0), ("factor_base",),
    ("potential_gradient",), ("potential_gradient", 0), ("omega_series",),
    ("omega_series", 0), ("omega_series", 0, "nu_power"), ("omega_series", 0, "form"),
    ("omega_series", 0, "form", "dz1^dzb1"),
]


@st.composite
def _chart_documents(draw):
    """Arbitrary JSON, or a valid chart with some fields replaced or removed."""
    if draw(st.booleans()):
        return draw(_JSON)
    doc = copy.deepcopy(_VALID)
    for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3)):
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                parent[path[-1]] = draw(_JSON)
            elif isinstance(parent, dict):
                parent.pop(path[-1], None)
        except (KeyError, IndexError, TypeError):
            pass
    return doc


@settings(max_examples=100, deadline=None)
@given(_chart_documents())
def test_fuzzed_chart_documents_exit_0_or_1(doc):
    assert _describe(json.dumps(doc)) in (0, 1)
