"""Golden bytes of `verify --suite all` on every bundled chart and product.

`verify_golden.json` holds the stdout and exit code of `verify --suite all`
at `--order 1` and `--order 2` for weyl, wick and antiwick on all 8 bundled
charts.  With `star_golden.json` it pins the rendered reports of the whole
command line.  Regenerate it with
`PYTHONPATH=src python tests/test_verify_golden.py > tests/verify_golden.json`
only when a change of the rendered bytes is intended.
"""

import contextlib
import io
import json
import pathlib

import pytest

from wickstar.cli import main

CHARTS = ("c1_flat", "c2_flat", "c2_flat_omega20", "cp1", "cp1_omega_nu",
          "disk", "disk_omega_inu", "disk_omega_nu")

COMMANDS = [
    ["verify", "--chart", chart, "--product", product, "--suite", "all", "--order", order]
    for chart in CHARTS
    for product in ("weyl", "wick", "antiwick")
    for order in ("1", "2")
]

GOLDEN = pathlib.Path(__file__).with_name("verify_golden.json")


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[2:5] + argv[-1:]))
def test_verify_output_is_byte_identical(argv):
    want = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert _record(argv) == want[tuple(argv)]


if __name__ == "__main__":
    print(json.dumps([_record(argv) for argv in COMMANDS], indent=1))
