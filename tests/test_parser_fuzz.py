"""Hostile `--f`/`--g` text through `cli.main`, in-process.

A seeded grammar of hostile shapes: deep and unbalanced nesting, long runs
of unary minus, huge integers as literals and exponents, long sums, nested
and negative powers, quotients by zero and by factors outside the chart's
base, and random character soup.  Every case must exit 0 or 1, print at
most one `error:` line, and never a traceback.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from wickstar.cli import main

ATOMS = ("z1", "zb1", "i", "0", "3", "(z1 + zb1)", "(1 - z1*zb1)", "z2", "x", "")
SHAPES = ("nesting", "minus", "integer", "sum", "power", "quotient", "soup")


@st.composite
def hostile(draw):
    shape = draw(st.sampled_from(SHAPES))
    atom = draw(st.sampled_from(ATOMS))
    if shape == "nesting":
        depth = draw(st.integers(0, 400))
        return "(" * depth + atom + ")" * draw(st.integers(max(0, depth - 2), depth + 2))
    if shape == "minus":
        return "-" * draw(st.integers(0, 400)) + atom
    if shape == "integer":
        literal = draw(st.sampled_from("123456789")) + "0" * draw(st.integers(0, 6000))
        form = draw(st.sampled_from(("{}", "z1^{}", "{}*z1", "1/{}", "z1^-{}", "{}^2", "-{}")))
        return form.format(literal)
    if shape == "sum":
        if draw(st.booleans()):
            return " + ".join([atom or "z1"] * draw(st.integers(1, 3000)))
        side = draw(st.integers(1, 30))
        return " - ".join(f"z1^{a}*zb1^{b}" for a in range(side) for b in range(side))
    if shape == "power":
        inner = f"({atom or 'z1'} + zb1 + 1)"
        for _ in range(draw(st.integers(1, 3))):
            inner = f"({inner}^{draw(st.integers(-70, 70))})"
        return inner
    if shape == "quotient":
        den = draw(st.sampled_from(("0", "(z1 - z1)", "(z1 - 1)", "(1 - z1*zb1)^64", "z1^64",
                                    "(1 + z1*zb1)", "i")))
        return f"{atom or 'z1'}/{den}"
    return draw(st.text(alphabet="z1b()+-*/^ 0123456789i.", max_size=80))


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True)
@given(hostile(), st.sampled_from(("c1_flat", "disk")), st.booleans())
def test_hostile_operands_exit_0_or_1_without_a_traceback(text, chart, as_f):
    f, g = (text, "zb1") if as_f else ("z1", text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["star", "--chart", chart, "--order", "1", f"--f={f}", f"--g={g}"])
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 1)
