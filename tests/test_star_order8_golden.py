"""Golden bytes of `star --order 8` on the curved one-dimensional charts.

The order-3 goldens of `test_star_golden.py` read Taylor series of total
degree 6 at most, where the weight cut of `star` (σ at ν^N reads only the
terms ν^p y^m of τ with p + |m| <= N) removes few terms.  At order 8 it
removes most of them.  `star_order8_golden.json` holds the stdout and exit
code of `star --order 8` for weyl, wick and antiwick on disk,
disk_omega_nu and cp1, once with polynomial f and g and once with f the
inverse of the chart's factor base entry (1 - z1*zb1 on the disks,
1 + z1*zb1 on cp1).  Regenerate it with
`PYTHONPATH=src python tests/test_star_order8_golden.py > tests/star_order8_golden.json`
only when a change of the rendered bytes is intended.
"""

import json
import pathlib

import pytest

from test_star_golden import _record

CHARTS = {
    "disk": "1/(1 - z1*zb1)",
    "disk_omega_nu": "1/(1 - z1*zb1)",
    "cp1": "1/(1 + z1*zb1)",
}
F, G = "z1^2*zb1 + i*zb1 - 3", "zb1^2 + z1"

COMMANDS = [
    ["star", "--chart", chart, "--product", product, "--order", "8", "--f", f, "--g", G]
    for chart, rational in CHARTS.items()
    for f in (F, rational)
    for product in ("weyl", "wick", "antiwick")
]

GOLDEN = pathlib.Path(__file__).with_name("star_order8_golden.json")


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[2:5] + argv[8:9]))
def test_star_order8_output_is_byte_identical(argv):
    want = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert _record(argv) == want[tuple(argv)]


if __name__ == "__main__":
    print(json.dumps([_record(argv) for argv in COMMANDS], indent=1))
