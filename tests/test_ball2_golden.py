"""Golden bytes of the star product on ball2 at order 2.

ball2's factor base entry 1 - z1*zb1 - z2*zb2 is a trinomial, so these are
the only pinned bytes whose divisions are not by a binomial.
`ball2_golden.json` holds `star(...).render_lines()` for weyl, wick and
antiwick at N = 2 on the `ball2` fixture of `conftest.py`, with fixed f and
g whose coefficients are rational and imaginary; f has the base entry in
its denominator.  Regenerate it with
`PYTHONPATH=src python tests/test_ball2_golden.py > tests/ball2_golden.json`
only when a change of the rendered bytes is intended.
"""

import json
import pathlib

import pytest

from wickstar.expr import parse
from wickstar.fedosov import FedosovData, star

N = 2
F, G = "z1*zb2/(1 - z1*zb1 - z2*zb2) + (1/2)*z2", "zb1^2 - i*z2*zb2"
PRODUCTS = ("weyl", "wick", "antiwick")

GOLDEN = pathlib.Path(__file__).with_name("ball2_golden.json")


def _record(chart, product):
    f = parse(F, chart.n, chart.factor_base)
    g = parse(G, chart.n, chart.factor_base)
    return star(FedosovData(product, chart, 2 * N + 2), f, g, N).render_lines()


@pytest.mark.parametrize("product", PRODUCTS)
def test_ball2_star_is_byte_identical(ball2, product):
    assert _record(ball2, product) == json.loads(GOLDEN.read_text())[product]


if __name__ == "__main__":
    from conftest import _BALL2
    from wickstar.chart import load_chart

    chart = load_chart(_BALL2)
    print(json.dumps({product: _record(chart, product) for product in PRODUCTS}, indent=1))
