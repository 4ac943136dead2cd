"""Golden bytes of every command that renders a differential form.

`form_golden.json` holds the stdout and exit code of `describe`,
`geometry --show ricci|omega` and `geometry --show karabegov --order 2`
(wick and antiwick) on every bundled chart.  Regenerate it with
`PYTHONPATH=src python tests/test_form_golden.py > tests/form_golden.json`
only when a change of the rendered bytes is intended.
"""

import contextlib
import io
import json
import pathlib

import pytest

from wickstar.cli import main

CHARTS = (
    "c1_flat",
    "c2_flat",
    "c2_flat_omega20",
    "cp1",
    "cp1_omega_nu",
    "disk",
    "disk_omega_inu",
    "disk_omega_nu",
)

COMMANDS = [
    argv
    for chart in CHARTS
    for argv in (
        ["describe", "--chart", chart],
        ["geometry", "--chart", chart, "--show", "ricci"],
        ["geometry", "--chart", chart, "--show", "omega"],
        ["geometry", "--chart", chart, "--show", "karabegov", "--order", "2", "--product", "wick"],
        ["geometry", "--chart", chart, "--show", "karabegov", "--order", "2", "--product", "antiwick"],
    )
]

GOLDEN = pathlib.Path(__file__).with_name("form_golden.json")


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_form_rendering_is_byte_identical(argv):
    want = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert _record(argv) == want[tuple(argv)]


if __name__ == "__main__":
    print(json.dumps([_record(argv) for argv in COMMANDS], indent=1))
