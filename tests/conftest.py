import pytest

from wickstar.chart import load_chart
from wickstar.expr import parse as parse_expr

from importlib import resources


def bundled(name):
    text = resources.files("wickstar").joinpath(f"charts/{name}.json").read_text()
    return load_chart(text)


@pytest.fixture(scope="session")
def c1_flat():
    return bundled("c1_flat")


@pytest.fixture(scope="session")
def c2_flat():
    return bundled("c2_flat")


@pytest.fixture(scope="session")
def c2_flat_omega20():
    return bundled("c2_flat_omega20")


@pytest.fixture(scope="session")
def c2_flat_skew():
    """A flat chart whose metric is not diagonal."""
    return load_chart({
        "name": "c2_flat_skew",
        "dimension": 2,
        "metric": [["2", "1"], ["1", "2"]],
        "inverse_metric": [["2/3", "-1/3"], ["-1/3", "2/3"]],
        "factor_base": [],
        "potential_gradient": ["i*zb1 + (1/2)*i*zb2", "(1/2)*i*zb1 + i*zb2"],
    })


@pytest.fixture(scope="session")
def disk():
    return bundled("disk")


@pytest.fixture(scope="session")
def disk_omega_nu():
    return bundled("disk_omega_nu")


@pytest.fixture(scope="session")
def disk_omega_inu():
    return bundled("disk_omega_inu")


@pytest.fixture(scope="session")
def cp1():
    return bundled("cp1")


@pytest.fixture(scope="session")
def cp1_omega_nu():
    return bundled("cp1_omega_nu")


# the unit ball in C^2: curved, with a non-diagonal metric and Christoffel
# symbols Gamma^a_{kl} with l != a, which no bundled chart has
_BALL2 = {
    "name": "ball2",
    "dimension": 2,
    "metric": [
        ["2*(1 - z2*zb2)/(1 - z1*zb1 - z2*zb2)^2", "2*zb1*z2/(1 - z1*zb1 - z2*zb2)^2"],
        ["2*zb2*z1/(1 - z1*zb1 - z2*zb2)^2", "2*(1 - z1*zb1)/(1 - z1*zb1 - z2*zb2)^2"],
    ],
    "inverse_metric": [
        ["(1 - z1*zb1 - z2*zb2)*(1 - z1*zb1)/2", "-(1 - z1*zb1 - z2*zb2)*z1*zb2/2"],
        ["-(1 - z1*zb1 - z2*zb2)*z2*zb1/2", "(1 - z1*zb1 - z2*zb2)*(1 - z2*zb2)/2"],
    ],
    "factor_base": ["1 - z1*zb1 - z2*zb2"],
    "potential_gradient": ["i*zb1/(1 - z1*zb1 - z2*zb2)", "i*zb2/(1 - z1*zb1 - z2*zb2)"],
}


@pytest.fixture(scope="session")
def ball2():
    return load_chart(_BALL2)


@pytest.fixture
def p1():
    """Parser for 1-dimensional chart expressions."""
    return lambda text: parse_expr(text, 1)


@pytest.fixture
def p2():
    return lambda text: parse_expr(text, 2)
