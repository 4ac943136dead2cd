"""The one store of derived values: keyed by value, bounded, checked.

Equal factor bases share one base entry (the interned base), charts with
equal metrics share one geometry entry (connection, curvature,
contraction and operator tables), and Fedosov data of equal value share
one Fedosov entry (the checked parts of r and the ad(r) tables).  These
tests pin that a warm store and a thrashing one give the bytes of a cold
one, that nothing stored changes after it is published, that every r the
store computes or extends is checked, and that memory stays bounded.
"""

import contextlib
import gc
import io
import json
import sys
import threading

import pytest

import test_ball2_golden
import test_star_golden
import test_verify_golden
from wickstar import expr as expr_module
from wickstar.chart import Chart, ChartError, load_chart
from wickstar.cli import main, resolve_chart
from wickstar.expr import parse
from wickstar.fedosov import ContractViolation, FedosovData, _RSeries, star

STORE = expr_module._STORE
CHART_FIELDS = {"n", "metric", "inverse_metric", "factor_base", "potential_gradient",
                "omega_series", "name", "_key"}
# the metric of the bundled disk, in a document of its own
DISK = {"dimension": 1, "metric": [["2/(1 - z1*zb1)^2"]],
        "inverse_metric": [["(1 - z1*zb1)^2/2"]], "factor_base": ["1 - z1*zb1"]}


def _clear_store():
    with expr_module._STORE_LOCK:
        STORE.clear()


@pytest.fixture
def r_calls(monkeypatch):
    """The truncations `_compute_r` and `verify_r` ran at, in order."""
    calls = {"compute": [], "verify": []}
    compute, verify = FedosovData._compute_r, FedosovData.verify_r

    def counted_compute(self, known):
        calls["compute"].append(self.K)
        return compute(self, known)

    def counted_verify(self):
        calls["verify"].append(self.K)
        return verify(self)

    monkeypatch.setattr(FedosovData, "_compute_r", counted_compute)
    monkeypatch.setattr(FedosovData, "verify_r", counted_verify)
    return calls


def _golden_pass(ball2):
    out = [test_star_golden._record(argv) for argv in test_star_golden.COMMANDS]
    out += [test_verify_golden._record(argv) for argv in test_verify_golden.COMMANDS]
    out += [test_ball2_golden._record(ball2, p) for p in test_ball2_golden.PRODUCTS]
    return out


def test_warm_and_thrashing_store_give_the_cold_bytes(ball2, monkeypatch, r_calls):
    """The star, verify and ball2 goldens from a cold store, again from the
    warm store (no r is computed), and again with room for one entry, so
    that every lookup of another key evicts."""
    _clear_store()
    cold = _golden_pass(ball2)
    assert r_calls["compute"] and r_calls["verify"] == r_calls["compute"]
    r_calls["compute"].clear()
    r_calls["verify"].clear()
    warm = _golden_pass(ball2)
    assert r_calls == {"compute": [], "verify": []}
    monkeypatch.setattr(expr_module, "_STORE_BOUND", 1)
    _clear_store()
    thrashing = _golden_pass(ball2)
    assert len(STORE) <= 1
    assert r_calls["verify"] == r_calls["compute"]
    assert cold == warm == thrashing


def _frozen(value):
    """A canonical form of a stored value, to compare before and after."""
    if isinstance(value, dict):
        return sorted((repr(k), _frozen(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_frozen(v) for v in value]
    if hasattr(value, "serialize"):
        return value.serialize()
    if hasattr(value, "__slots__"):
        return [_frozen(getattr(value, name)) for name in value.__slots__]
    return repr(value)


def _stored_values():
    out = {}
    for key, entry in list(STORE.items()):
        if isinstance(entry, dict):
            for name, value in entry.items():
                if not isinstance(value, dict):
                    out[key, name] = _frozen(value)
                    continue
                for k, v in value.items():
                    out[key, repr(name), repr(k)] = _frozen(v)
        elif isinstance(entry, expr_module._FactorBase):
            out[key, "base"] = _frozen(entry)
        elif isinstance(entry, Chart):
            out[key, "chart"] = [_frozen(entry.metric), _frozen(entry.inverse_metric),
                                 _frozen(entry.factor_base), _frozen(entry.potential_gradient),
                                 entry.omega_series.render(), entry.name]
        else:
            out[key, "parts"] = _frozen(entry.parts)
            for k, v in entry.ad_ops.items():
                out[key, "ad_ops", repr(k)] = _frozen(v)
    return out


def test_stored_values_do_not_change_after_use():
    """r, the chart and every stored table read the same after a whole
    verify run on the same chart and product, which adds to the tables but
    must not change a published value (an in-place write to the terms of a
    shared part would)."""
    _clear_store()
    disk = resolve_chart("disk")
    data = FedosovData("wick", disk, 6)
    z, zb = parse("z1^2*zb1 + i*zb1 - 3", 1, disk.factor_base), parse("zb1^2 + z1", 1, disk.factor_base)
    star(data, z, zb, 2)
    r_before, before = data.r.serialize(), _stored_values()
    assert any(key[1] == "ad_ops" for key in before if len(key) == 3)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--chart", "disk", "--product", "wick", "--suite", "all",
                     "--order", "2"]) in (0, 1)
    after = _stored_values()
    assert any(key[1] == "chart" for key in before if len(key) == 2)
    assert data.r.serialize() == r_before
    assert before.keys() <= after.keys()
    assert all(after[key] == value for key, value in before.items())


def test_verify_r_runs_on_every_r_the_store_computes(r_calls):
    """A cold verify run checks each r it computes, a warm one computes
    none, and a larger truncation extends an entry and checks it again."""
    _clear_store()
    argv = ["verify", "--chart", "cp1_omega_nu", "--product", "weyl", "--suite", "all",
            "--order", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
        assert r_calls["compute"] and r_calls["verify"] == r_calls["compute"]
        r_calls["compute"].clear()
        r_calls["verify"].clear()
        main(argv)
    assert r_calls == {"compute": [], "verify": []}

    chart = load_chart(DISK)
    small = FedosovData("antiwick", chart, 4)
    large = FedosovData("antiwick", chart, 8)
    again = FedosovData("antiwick", chart, 4)
    assert r_calls == {"compute": [4, 8], "verify": [4, 8]}
    assert again.r == small.r and again.r_parts.keys() == small.r_parts.keys()
    assert large.r.truncate(4) == small.r


def test_a_failed_check_publishes_nothing(disk, monkeypatch, r_calls):
    _clear_store()

    def failing(self):
        raise ContractViolation("connection element fails its defining equation")

    with monkeypatch.context() as patch:
        patch.setattr(FedosovData, "verify_r", failing)
        with pytest.raises(ContractViolation):
            FedosovData("weyl", disk, 6)
    assert not any(isinstance(entry, _RSeries) for entry in STORE.values())
    FedosovData("weyl", disk, 6)
    assert r_calls == {"compute": [6, 6], "verify": [6]}


def test_a_chart_document_is_loaded_once(tmp_path):
    """The same text loaded twice is one chart, and so is the same path; a
    path that names the chart is part of the key; a failing document raises
    the same error each time and leaves no entry; distinct documents age
    out of the store like any other entry."""
    _clear_store()
    text = json.dumps(DISK)
    chart = load_chart(text)
    assert load_chart(text) is chart
    assert load_chart(json.dumps(DISK, indent=1)) is not chart
    paths = [str(tmp_path / f"{name}.json") for name in ("a", "b")]
    for path in paths:
        with open(path, "w") as fh:
            fh.write(text)
    a, b = (load_chart(path) for path in paths)
    assert (a.name, b.name, chart.name) == (*paths, "")
    assert load_chart(paths[0]) is a and a._key == b._key == chart._key

    bad = json.dumps({**DISK, "inverse_metric": [["(1 - z1*zb1)^2"]]})
    entries = len(STORE)
    errors = []
    for _ in range(2):
        with pytest.raises(ChartError) as exc:
            load_chart(bad)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "inverse metric mismatch at (0,0)"
    assert len(STORE) == entries and ("chart", bad, "") not in STORE

    for k in range(1, 301):
        load_chart(json.dumps({"dimension": 1, "metric": [[str(k)]], "inverse_metric": [[f"1/{k}"]]}))
        assert len(STORE) <= expr_module._STORE_BOUND
    assert len(STORE) == expr_module._STORE_BOUND


def test_charts_of_equal_metric_share_one_geometry_entry(disk, disk_omega_nu):
    other = load_chart(DISK)
    assert other._key == disk._key == disk_omega_nu._key
    assert other.curvature_data is disk.curvature_data
    assert other._derived(("wick", "pairs")) is disk_omega_nu._derived(("wick", "pairs"))
    data = FedosovData("wick", disk, 4)
    assert not hasattr(data, "_ad_ops") and not hasattr(data, "_nabla_ops")


def test_store_stays_bounded_over_3000_charts():
    """3,000 distinct flat charts in one process, one order-1 star product
    on each: the store never holds more than its bound, and no chart holds
    tables of its own."""
    _clear_store()
    for k in range(1, 3001):
        chart = load_chart({"dimension": 1, "metric": [[str(k)]],
                            "inverse_metric": [[f"1/{k}"]]})
        f, g = parse("z1", 1), parse("zb1", 1)
        series = star(FedosovData("wick", chart, 4), f, g, 1)
        assert series.coeffs[1] == parse(f"-2*i/{k}", 1)
        assert len(STORE) <= expr_module._STORE_BOUND
        assert set(vars(chart)) == CHART_FIELDS and isinstance(chart._key, str)
    assert len(STORE) == expr_module._STORE_BOUND


def test_factor_bases_stay_bounded_over_charts_with_bases():
    """Three times the bound of distinct curved charts, each with a factor
    base of its own, one order-1 star product on each: the base entries
    age in the store with the rest, so the store stays within its bound
    and fewer bases than the bound stay alive."""
    _clear_store()
    bound = expr_module._STORE_BOUND
    for k in range(1, 3 * bound + 1):
        b = f"1 + {k}*z1*zb1"
        chart = load_chart({"dimension": 1, "metric": [[f"1/({b})^2"]],
                            "inverse_metric": [[f"({b})^2"]], "factor_base": [b]})
        series = star(FedosovData("wick", chart, 4), parse("z1", 1), parse("zb1", 1), 1)
        assert series.coeffs[1] == parse(f"-2*i*({b})^2", 1)
        assert len(STORE) <= bound
    del chart, series
    gc.collect()
    assert sum(isinstance(o, expr_module._FactorBase) for o in gc.get_objects()) < bound


def test_threads_sharing_a_small_store_get_the_serial_results(disk, cp1, monkeypatch):
    """Six threads run star products on four charts, two orders (so that
    entries are extended) and three kinds, through a store with room for
    four entries, with the interpreter switching threads as often as it
    can: every result equals the serial one, and the store stays bounded."""
    flat = [load_chart({"dimension": 1, "metric": [[str(k)]], "inverse_metric": [[f"1/{k}"]]})
            for k in (3, 5)]
    jobs = [(chart, kind, order) for chart in (disk, cp1, *flat)
            for kind in ("weyl", "wick", "antiwick") for order in (1, 2)]

    def run(chart, kind, order):
        f = parse("z1^2*zb1 + i*zb1 - 3", 1, chart.factor_base)
        g = parse("zb1^2 + z1", 1, chart.factor_base)
        return star(FedosovData(kind, chart, 2 * order + 2), f, g, order).render_lines()

    want = [run(*job) for job in jobs]
    monkeypatch.setattr(expr_module, "_STORE_BOUND", 4)
    _clear_store()
    got, errors = {}, []

    def worker(w):
        try:
            for i in range(len(jobs)):
                i = (i * 5 + w * 7) % len(jobs)
                got[w, i] = run(*jobs[i])
                if len(STORE) > 4:
                    errors.append(f"store holds {len(STORE)} entries")
        except Exception as exc:  # reported below, with the thread's job
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 6 * len(jobs)
    assert all(lines == want[i] for (_, i), lines in got.items())
