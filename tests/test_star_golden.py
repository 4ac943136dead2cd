"""Golden bytes of `star --order 3` on every bundled chart and product.

`star_golden.json` holds the stdout and exit code of `star --order 3` for
weyl, wick and antiwick on all 8 bundled charts, with fixed f and g per
dimension whose coefficients are rational and imaginary.  Regenerate it
with `PYTHONPATH=src python tests/test_star_golden.py > tests/star_golden.json`
only when a change of the rendered bytes is intended.
"""

import contextlib
import io
import json
import pathlib

import pytest

from wickstar.cli import main

CHARTS = {
    "c1_flat": 1,
    "c2_flat": 2,
    "c2_flat_omega20": 2,
    "cp1": 1,
    "cp1_omega_nu": 1,
    "disk": 1,
    "disk_omega_inu": 1,
    "disk_omega_nu": 1,
}

OPERANDS = {
    1: ("z1^2 + (1/3)*zb1", "zb1^2 - i*z1"),
    2: ("z1*zb2 + (1/2)*z2", "zb1^2 - i*z2*zb2"),
}

COMMANDS = [
    ["star", "--chart", chart, "--product", product, "--order", "3",
     "--f", OPERANDS[n][0], "--g", OPERANDS[n][1]]
    for chart, n in CHARTS.items()
    for product in ("weyl", "wick", "antiwick")
]

GOLDEN = pathlib.Path(__file__).with_name("star_golden.json")


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[2:5]))
def test_star_output_is_byte_identical(argv):
    want = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert _record(argv) == want[tuple(argv)]


if __name__ == "__main__":
    print(json.dumps([_record(argv) for argv in COMMANDS], indent=1))
