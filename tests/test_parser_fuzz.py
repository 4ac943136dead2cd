"""Hostile `--f`/`--g` text and hostile chart documents through
`cli.main`, in-process.

A seeded grammar of hostile shapes: deep and unbalanced nesting, long runs
of unary minus, huge integers as literals and exponents, long sums, nested
and negative powers, quotients by zero and by factors outside the chart's
base, and random character soup.  Chart documents are the bundled disk
with one field spoiled: wrong JSON types, unknown keys, a huge or boolean
`dimension`, small matrices under a huge dimension, a huge `nu_power`,
malformed form keys, and denominators and base entries the base does not
admit.  Command lines carry hostile `--order` and `--truncation` values:
negative, zero, above the caps, huge, not integers, and truncations below
2N+2.  Every case must exit 0 or 1, print at most one `error:` line, and
never a traceback, within the deadline.
"""

import contextlib
import io
import json
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


def _check_run(argv):
    """main(argv) exits 0 or 1, with one `error:` line exactly when it fails
    and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 1)


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True)
@given(hostile(), st.sampled_from(("c1_flat", "disk")), st.booleans())
def test_hostile_operands_exit_0_or_1_without_a_traceback(text, chart, as_f):
    f, g = (text, "zb1") if as_f else ("z1", text)
    _check_run(["star", "--chart", chart, "--order", "1", f"--f={f}", f"--g={g}"])


DISK = {"name": "disk", "dimension": 1, "metric": [["2/(1 - z1*zb1)^2"]],
        "inverse_metric": [["(1 - z1*zb1)^2/2"]], "factor_base": ["1 - z1*zb1"],
        "potential_gradient": ["i*zb1/(1 - z1*zb1)"],
        "omega_series": [{"nu_power": 1, "form": "omega"}]}
JSON_VALUES = (None, True, False, 0, -1, 2.5, 10**30, "", "z1", "1", [], {}, [[]], [None],
               ["1", 2], [["1"], "1"], {"nu_power": 1}, [{"form": "omega"}])
HUGE = (2, 3, 50_000, 1_000_000, 10**18, 10**100)
FORM_KEYS = ("dz1", "dz1^dz1", "dzb1^dz1", "dz0^dzb1", "dz1^dzb2", "dz1^dzb1^dz1", "dq1^dzb1",
             "dz1^dzb" + "9" * 30, "dz^dzb", "", "^", " dz1 ^ dzb1 ", "dzb1^dzb1", "dz-1^dzb1")
OUTSIDE = ("1/(1 + z1*zb1)", "1/(z1 - 1)", "2/(1 - z1*zb1)^3", "1/(1 - z1*zb1)^64",
           "1/0", "z1/(z1 - z1)", "(1 - z1*zb1)^-1", "1/(2 - z1*zb1)", "1/zb1")
BASES = (["1 + z1"], ["z1*zb1"], ["2"], ["1 - z1*zb1", "1 - z1*zb1"], ["1/(1 - z1)"],
         ["1 - z1*zb1", "2 - 2*z1*zb1"], ["(1 - z1*zb1)^2"], ["1 - z1*zb1", "1 + z1*zb1"],
         ["z2"], [""], ["1 - z1*zb1"] * 40)
CHART_SHAPES = ("type", "unknown", "dimension", "small", "nu_power", "form_key", "outside",
                "base")


@st.composite
def hostile_chart(draw):
    doc = json.loads(json.dumps(DISK))
    shape = draw(st.sampled_from(CHART_SHAPES))
    if shape == "type":
        doc[draw(st.sampled_from(sorted(DISK)))] = draw(st.sampled_from(JSON_VALUES))
    elif shape == "unknown":
        doc[draw(st.text(max_size=8))] = draw(st.sampled_from(JSON_VALUES))
    elif shape == "dimension":
        doc["dimension"] = draw(st.sampled_from((True, False, 0, -3, 1.0, "1") + HUGE))
    elif shape == "small":
        # matrices of dimension 1 or less, written in either layout
        doc["dimension"] = draw(st.sampled_from(HUGE))
        field = draw(st.sampled_from(("metric", "inverse_metric", "potential_gradient")))
        doc[field] = draw(st.sampled_from(([], ["1"], [["1"]], [["1"], ["1"]], ["1", "0"])))
    elif shape == "nu_power":
        power = draw(st.sampled_from((10**9, 10**30, 0, -1, 2, True, "1", None)))
        doc["omega_series"] = [{"nu_power": power, "form": draw(st.sampled_from(
            ("omega", "2*omega", {"dz1^dzb1": "i/(1 - z1*zb1)^2"})))}]
    elif shape == "form_key":
        doc["omega_series"] = [{"nu_power": 1, "form": {draw(st.sampled_from(FORM_KEYS)): "1"}}]
    elif shape == "outside":
        field = draw(st.sampled_from(("metric", "inverse_metric", "potential_gradient", "form")))
        text = draw(st.sampled_from(OUTSIDE))
        if field == "form":
            doc["omega_series"] = [{"nu_power": 1, "form": {"dz1^dzb1": text}}]
        else:
            doc[field] = [text] if field == "potential_gradient" else [[text]]
    else:
        doc["factor_base"] = draw(st.sampled_from(BASES))
    return doc


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(hostile_chart(), st.booleans())
def test_hostile_chart_documents_exit_0_or_1_without_a_traceback(tmp_path_factory, doc,
                                                                 describe):
    path = tmp_path_factory.getbasetemp() / "hostile_chart.json"
    path.write_text(json.dumps(doc))
    if describe:
        _check_run(["describe", "--chart", str(path)])
    else:
        _check_run(["star", "--chart", str(path), "--order", "1", "--f", "z1", "--g", "zb1"])


ORDERS = ("-1", "-17", "0", "1", "2", "16", "17", "1000", "9" * 30, "9" * 5000, "1.5", "1e3",
          "two", "", "0x10", "1_0", " 2 ", "\u0663")
# "below" and "least" stand for 2N+1 and 2N+2 of the drawn order N
TRUNCATIONS = (None, "-1", "0", "3", "below", "least", "34", "35", "9" * 30, "2.5", "K", "")


def _integer(text):
    """The int the command line makes of `text`, or None when it refuses it."""
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
@given(st.sampled_from(ORDERS), st.sampled_from(TRUNCATIONS), st.booleans())
def test_hostile_orders_and_truncations_exit_0_or_1_without_a_traceback(order, truncation,
                                                                         verify):
    n = _integer(order)
    if truncation in ("below", "least"):
        least = 2 * (n if n is not None else 1) + 2
        truncation = str(least - 1 if truncation == "below" else least)
    flags = ["--order", order] + ([] if truncation is None else ["--truncation", truncation])
    # a valid request above the default truncation runs only as a star
    # product on the flat chart, which stays fast up to the caps
    k = 2 * n + 2 if truncation is None and n is not None else _integer(truncation or "x")
    valid = n is not None and 0 <= n <= 16 and k is not None and 2 * n + 2 <= k <= 34
    if verify and not (valid and k > 4):
        _check_run(["verify", "--chart", "c1_flat", "--suite", "all"] + flags)
    else:
        _check_run(["star", "--chart", "c1_flat", "--f", "z1^2*zb1 + i", "--g", "zb1^2 + z1"]
                   + flags)
