"""Command-line interface: commands, exit codes, determinism."""

import json
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from wickstar import cli
from wickstar.cli import MAX_ORDER, MAX_TRUNCATION, main
from wickstar.expr import ExprError, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_example(capsys):
    code, out, _ = run(capsys, "star", "--chart", "c1_flat", "--product", "wick",
                       "--order", "1", "--f", "z1", "--g", "zb1")
    assert code == 0
    assert out.splitlines() == ["order0: z1*zb1", "order1: -2*i"]


def test_star_with_unit(capsys):
    code, out, _ = run(capsys, "star", "--chart", "c1_flat", "--order", "2",
                       "--f", "1", "--g", "zb1")
    assert code == 0
    assert out.splitlines() == ["order0: zb1", "order1: 0", "order2: 0"]


def test_star_malformed_expression(capsys):
    code, _, err = run(capsys, "star", "--chart", "c1_flat", "--f", "z1*((", "--g", "zb1")
    assert code == 1
    assert "error" in err


def test_star_json_schema(capsys):
    code, out, _ = run(capsys, "star", "--chart", "c1_flat", "--order", "1",
                       "--f", "z1", "--g", "zb1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["coefficients"] == ["z1*zb1", "-2*i"]


def test_unknown_chart(capsys):
    code, _, err = run(capsys, "star", "--chart", "nonexistent", "--f", "z1", "--g", "zb1")
    assert code == 1
    assert "not found" in err


def test_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--chart", "c1_flat", "--suite", "bogus")
    assert code == 1
    assert "unknown suite" in err


def test_truncation_only_upward(capsys):
    code, _, err = run(capsys, "star", "--chart", "c1_flat", "--order", "2",
                       "--truncation", "4", "--f", "z1", "--g", "zb1")
    assert code == 1
    assert "truncation" in err


def test_verify_wick_suite_flat(capsys):
    code, out, _ = run(capsys, "verify", "--chart", "c1_flat", "--suite", "wick",
                       "--order", "2", "--seed", "3")
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--chart", "c2_flat_omega20", "--suite",
                       "wick", "--order", "2")
    assert code == 1
    assert "[FAIL] structural: pi_z r = 0" in out
    assert "offending term" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--chart", "c2_flat_omega20", "--suite",
                       "wick", "--order", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["passed"] is False
    names = {c["name"]: c for s in payload["suites"] for c in s["checks"]}
    assert names["structural: pi_z r = 0"]["passed"] is False
    assert names["structural: pi_z r = 0"]["detail"]


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--chart", "c1_flat", "--suite", "algebra",
                     "--order", "2", "--seed", "11", "--format", "json")
    _, out2, _ = run(capsys, "verify", "--chart", "c1_flat", "--suite", "algebra",
                     "--order", "2", "--seed", "11", "--format", "json")
    assert out1 == out2


def test_geometry_christoffel(capsys):
    code, out, _ = run(capsys, "geometry", "--chart", "disk", "--show", "christoffel")
    assert code == 0
    assert out.strip() == "Gamma[1,1,1] = (-2*zb1)/(z1*zb1 - 1)"


def test_geometry_flat_curvature(capsys):
    code, out, _ = run(capsys, "geometry", "--chart", "c1_flat", "--show", "curvature")
    assert code == 0
    assert out.strip() == "R = 0"


def test_geometry_karabegov_requires_gradient(capsys, tmp_path):
    doc = {
        "name": "no_grad",
        "dimension": 1,
        "metric": [["1"]],
        "inverse_metric": [["1"]],
    }
    path = tmp_path / "no_grad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "geometry", "--chart", str(path), "--show", "karabegov")
    assert code == 1
    assert "potential gradient" in err


def test_geometry_karabegov(capsys):
    code, out, _ = run(capsys, "geometry", "--chart", "disk_omega_nu", "--show",
                       "karabegov", "--order", "2")
    assert code == 0
    assert out.startswith("K(star) = nu^0")
    assert "nu^1" in out


BALL2_OMEGA_NU = {
    "name": "ball2_omega_nu",
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
    "omega_series": [{"nu_power": 1, "form": "omega"}],
}


def test_geometry_karabegov_omega_multiple_outside_the_base(capsys, tmp_path):
    """On the unit ball in C^2 the numerators of omega's components, such as
    1 - z2*zb2, lie outside the factor base; the series nu * omega is still
    recognized as a multiple of omega and integrated through the potential
    gradient, as on the disk."""
    path = tmp_path / "ball2_omega_nu.json"
    path.write_text(json.dumps(BALL2_OMEGA_NU))
    code, out, err = run(capsys, "geometry", "--chart", str(path), "--show", "karabegov",
                         "--product", "wick", "--order", "1")
    assert (code, err) == (0, "")
    # K(star) = omega + nu * omega: both brackets print omega
    zeroth, first = out.strip().split(" + nu^1 * ")
    assert zeroth == "K(star) = nu^0 * " + first


def test_describe(capsys):
    code, out, _ = run(capsys, "describe", "--chart", "disk")
    assert code == 0
    assert "dimension: 1" in out
    assert "flat: no" in out
    assert "ricci form" in out


def test_chart_by_path(capsys, tmp_path):
    doc = {
        "name": "tmp_flat",
        "dimension": 1,
        "metric": [["1"]],
        "inverse_metric": [["1"]],
    }
    path = tmp_path / "tmp_flat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "star", "--chart", str(path), "--f", "z1", "--g", "zb1")
    assert code == 0
    assert out.splitlines()[0] == "order0: z1*zb1"


def test_star_disk_order5_golden(capsys):
    """Curved-chart coefficients are printed fully reduced: each of these
    is a polynomial, so no denominator appears."""
    code, out, _ = run(capsys, "star", "--chart", "disk", "--order", "5",
                       "--f", "z1^2", "--g", "zb1^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[4] == ("order4: 600*z1^6*zb1^6 - 2208*z1^5*zb1^5 + 3138*z1^4*zb1^4"
                        " - 2136*z1^3*zb1^3 + 692*z1^2*zb1^2 - 88*z1*zb1 + 2")
    assert lines[5] == ("order5: -4320*i*z1^7*zb1^7 + 18000*i*z1^6*zb1^6"
                        " - 29952*i*z1^5*zb1^5 + 25170*i*z1^4*zb1^4 - 11064*i*z1^3*zb1^3"
                        " + 2348*i*z1^2*zb1^2 - 184*i*z1*zb1 + 2*i")
    assert len(lines) == 6


def test_order_outside_cap_rejected(capsys):
    for order in ("-3", str(MAX_ORDER + 1)):
        code, out, err = run(capsys, "verify", "--chart", "c1_flat", "--suite", "algebra",
                             "--order", order)
        assert code == 1
        assert out == ""
        assert f"outside 0..{MAX_ORDER}" in err


def test_exponent_outside_cap_rejected(capsys):
    code, out, err = run(capsys, "star", "--chart", "c1_flat", "--f", "z1^3000000",
                         "--g", "zb1")
    assert code == 1
    assert out == ""
    assert "exceeds the cap" in err


def test_denominator_outside_the_base_rejected_at_once(capsys):
    """1/(z1+2) on the disk: z1 + 2 is not in the chart's factor base, so
    the argument is a user error before any product is computed."""
    started = time.perf_counter()
    code, out, err = run(capsys, "star", "--chart", "disk", "--order", "2",
                         "--f", "1/(z1+2)", "--g", "zb1")
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert "does not factor over the factor base" in err and "factor_base" in err


def test_verify_fedosov_antiwick(capsys):
    """The fixed-point probe leaves the domain of the antiwick map through
    a nu division; that is tolerated, not reported as an error."""
    code, out, _ = run(capsys, "verify", "--chart", "disk", "--product", "antiwick",
                       "--suite", "fedosov", "--order", "1", "--seed", "2")
    assert code == 0
    assert "fixed point from two seeds reproduces the recursion" in out
    assert "result: all checks passed" in out


def test_usage_errors_exit_1(capsys):
    for argv in (["star", "--chart", "c1_flat", "--order", "abc", "--f", "z1", "--g", "zb1"],
                 ["star", "--chart", "c1_flat", "--f", "z1"],
                 [],
                 ["bogus"],
                 # flags a subcommand does not read
                 ["star", "--chart", "c1_flat", "--seed", "1", "--f", "z1", "--g", "zb1"],
                 ["geometry", "--chart", "disk", "--seed", "1", "--show", "ricci"],
                 ["describe", "--chart", "disk", "--order", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


def test_deep_nesting_is_a_user_error(capsys, tmp_path):
    """250 parentheses in an operand, and 400 around a chart entry, exit 1
    with one error line instead of a RecursionError traceback."""
    deep = "(" * 250 + "z1" + ")" * 250
    code, out, err = run(capsys, "star", "--chart", "c1_flat", "--order", "1",
                         "--f", deep, "--g", "zb1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "nesting" in err
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dimension": 1, "metric": [["(" * 400 + "1" + ")" * 400]],
                                "inverse_metric": [["1"]]}))
    code, out, err = run(capsys, "describe", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "nesting" in err


def test_non_ascii_digits_in_names_are_user_errors(capsys, tmp_path):
    """A superscript or an Arabic-Indic digit passes str.isdigit but is no
    index: `z²` and `z١` in an operand, and `dz¹` in a form key, exit 1 with
    one error line."""
    for f in ("z²", "z١"):
        code, out, err = run(capsys, "star", "--chart", "c1_flat", "--order", "1",
                             "--f", f, "--g", "z1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "malformed variable" in err
    doc = json.loads(resources.files("wickstar").joinpath("charts/c2_flat_omega20.json").read_text())
    doc["omega_series"] = [{"nu_power": 1, "form": {"dz¹^dz2": "1"}}]
    path = tmp_path / "superscript.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "describe", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "out of range" in err


def test_huge_dimension_with_small_matrices_is_a_user_error(capsys, tmp_path):
    """A copy of the bundled disk claiming a dimension of a million fails on
    the shape of its matrices at once, before any entry is parsed in two
    million variables."""
    doc = json.loads(resources.files("wickstar").joinpath("charts/disk.json").read_text())
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**doc, "dimension": 1_000_000}))
    start = time.perf_counter()
    code, out, err = run(capsys, "describe", "--chart", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "metric" in err


def test_dimension_above_the_cap_is_a_user_error(capsys, tmp_path):
    """The identity metric in dimension 24, a well-formed 5.9 KB document,
    is refused before any entry is parsed instead of running the n^5
    curvature check for many seconds."""
    from wickstar.chart import MAX_DIMENSION

    n = 24
    assert n > MAX_DIMENSION
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    path = tmp_path / "identity24.json"
    path.write_text(json.dumps({"name": "identity24", "dimension": n,
                                "metric": identity, "inverse_metric": identity}))
    start = time.perf_counter()
    code, out, err = run(capsys, "describe", "--chart", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "dimension 24" in err


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    """One process: usage error, star, verify, usage error.  The parser is
    built on the first call only, and every call reports what a parser
    built for it alone reports."""
    sequence = (
        ["star", "--chart", "c1_flat", "--order", "abc", "--f", "z1", "--g", "zb1"],
        ["star", "--chart", "c1_flat", "--product", "antiwick", "--order", "2",
         "--truncation", "8", "--f", "z1", "--g", "zb1"],
        ["verify", "--chart", "c1_flat", "--suite", "algebra"],
        ["verify", "--chart", "c1_flat", "--f", "z1"],
    )
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", [])
    shared = [run(capsys, *argv) for argv in sequence]
    assert len(built) == 1
    assert [code for code, _, _ in shared][:2] == [1, 0]
    assert shared[2][0] in (0, 1) and shared[3][0] == 1
    alone = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", [])
        alone.append(run(capsys, *argv))
    assert shared == alone
    assert shared[1][1].splitlines() == ["order0: z1*zb1", "order1: 0", "order2: 0"]
    assert shared[2][1].startswith("suite algebra: ")
    assert all(err.startswith("error: ") for _, _, err in (shared[0], shared[3]))


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["star", "--help"])
    assert info.value.code == 0
    assert "--truncation" in capsys.readouterr().out


def test_truncation_above_cap_rejected(capsys):
    code, out, err = run(capsys, "star", "--chart", "c1_flat", "--order", "1",
                         "--truncation", "100000", "--f", "z1", "--g", "zb1")
    assert code == 1
    assert out == ""
    assert f"exceeds the cap of {MAX_TRUNCATION}" in err
    code, _, _ = run(capsys, "star", "--chart", "c1_flat", "--order", "1",
                     "--truncation", str(MAX_TRUNCATION), "--f", "z1", "--g", "zb1")
    assert code == 0


def test_karabegov_at_order_0(capsys):
    """The relations' nu^1 terms lie beyond order 0 and are left out."""
    code, out, _ = run(capsys, "geometry", "--chart", "c1_flat", "--show", "karabegov",
                       "--order", "0")
    assert code == 0
    assert out.startswith("K(star) = nu^0")
    code, out, _ = run(capsys, "verify", "--chart", "disk", "--product", "antiwick",
                       "--suite", "karabegov", "--order", "0")
    assert code == 0


@pytest.mark.parametrize("product", ("wick", "antiwick"))
@pytest.mark.parametrize("chart", ("c1_flat", "disk"))
def test_verify_fedosov_and_equivalence_at_order_0(capsys, chart, product):
    """Both suites read products or one-forms beyond K = 2 and raise their
    own truncation to 4."""
    for suite, check in (("fedosov", "first-order commutator is the poisson bracket"),
                         ("equivalence", "renormalization shifts r by the central one-form")):
        code, out, err = run(capsys, "verify", "--chart", chart, "--product", product,
                             "--suite", suite, "--order", "0")
        assert err == ""
        assert code == 0
        assert f"[PASS] {check}" in out


# -- fuzzing: every command line ends with exit 0 or 1, never 2 or a traceback --

TOKENS = ("z1", "zb1", "z2", "zb2", "z3", "i", "0", "1", "2", "3/4", "x", "", "zb")


def expressions():
    def extend(children):
        return st.one_of(
            st.builds("{}{}{}".format, children, st.sampled_from("+-*/"), children),
            st.builds("({})".format, children),
            st.builds("-{}".format, children),
            st.builds("{}^{}".format, children,
                      st.sampled_from(("0", "1", "2", "3", "-1", "-2", "65", "x", ""))),
        )

    return st.one_of(
        st.recursive(st.sampled_from(TOKENS), extend, max_leaves=6),
        st.text(alphabet="z1b2i+-*/^() 0", max_size=10),
    )


def flag(name, values):
    """The flag with one of the values, or nothing."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


def options():
    return st.tuples(
        flag("--chart", ("c1_flat", "c2_flat", "disk", "nonexistent", "")),
        flag("--product", ("weyl", "wick", "antiwick", "bogus")),
        flag("--order", ("0", "1", "-1", "abc", str(MAX_ORDER + 1))),
        flag("--truncation", ("2", "4", "5", str(MAX_TRUNCATION + 1), "x")),
        flag("--seed", ("0", "7", "-3", "s")),
        flag("--format", ("text", "json", "xml")),
    ).map(lambda groups: [token for group in groups for token in group])


def command_lines():
    star = st.tuples(st.just(["star"]), options(),
                     st.lists(st.sampled_from(("--f", "--g")), max_size=2, unique=True),
                     expressions(), expressions()).map(
        lambda t: t[0] + t[1] + [tok for name, text in zip(t[2], t[3:]) for tok in (name, text)])
    verify = st.tuples(st.just(["verify"]), options(),
                       st.sampled_from(("algebra", "wick", "parity", "all", "bogus"))).map(
        lambda t: t[0] + t[1] + ["--suite", t[2]])
    geometry = st.tuples(st.just(["geometry"]), options(),
                         st.sampled_from(("christoffel", "ricci", "karabegov", "bogus"))).map(
        lambda t: t[0] + t[1] + ["--show", t[2]])
    other = st.lists(st.sampled_from(("describe", "bogus", "--chart", "c1_flat", "--order", "1")),
                     max_size=4)
    return st.one_of(star, verify, geometry, other)


@settings(max_examples=50, deadline=20000)
@given(command_lines())
def test_fuzzed_command_lines_exit_0_or_1(argv):
    assert main(argv) in (0, 1)


@settings(max_examples=50, deadline=5000)
@given(expressions(), st.integers(1, 2))
def test_fuzzed_expressions_parse_or_raise_expr_error(text, n):
    try:
        parse(text, n)
    except ExprError:
        pass
