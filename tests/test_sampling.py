"""Deterministic sampling utilities.

`sampling_golden.json` pins the serializations of `random_polynomial` and
`random_weyl_element` for seeds 0-3 on disk and c2_flat: the values every
sampled check draws, so a change to how a draw is turned into a value
must leave them as they are.
"""

import json
import pathlib

import pytest

from wickstar.sampling import Lcg, monomial_pool, random_polynomial, random_weyl_element, spanning_set


def test_lcg_deterministic():
    a = [Lcg(7).next_u32() for _ in range(5)]
    b = [Lcg(7).next_u32() for _ in range(5)]
    assert a == b
    assert [Lcg(8).next_u32() for _ in range(5)] != a


def test_lcg_split_independent():
    root = Lcg(1)
    s1 = root.split("alpha")
    s2 = root.split("beta")
    assert [s1.next_u32() for _ in range(3)] != [s2.next_u32() for _ in range(3)]
    again1 = Lcg(1).split("alpha")
    again2 = Lcg(1).split("alpha")
    assert [again1.next_u32() for _ in range(3)] == [again2.next_u32() for _ in range(3)]


def test_random_polynomial_reproducible():
    p = random_polynomial(2, Lcg(42))
    q = random_polynomial(2, Lcg(42))
    assert p == q
    assert p.is_polynomial()


def test_monomial_pool_covers_degrees():
    pool = monomial_pool(1, 3)
    assert len(pool) == 16
    degrees = {max(e for e in next(iter(m.num.terms))) for m in pool}
    assert degrees <= {0, 1, 2, 3}


def test_random_weyl_element_untruncated(disk):
    e = random_weyl_element(disk, Lcg(9), max_degree=6)
    assert e.truncation is None
    assert e.max_deg() <= 6


def test_spanning_set_bounds(c1_flat):
    els = spanning_set(c1_flat, 4)
    assert els
    assert all(e.max_deg() <= 4 for e in els)
    syms = {key[1] for e in els for key in e.terms}
    assert (0, 0) in syms and (2, 2) not in {s for s in syms if sum(s) > 4}


GOLDEN = json.loads(pathlib.Path(__file__).with_name("sampling_golden.json").read_text())


@pytest.mark.parametrize("name", ("disk", "c2_flat"))
def test_sampled_values_are_pinned(request, name):
    chart = request.getfixturevalue(name)
    for seed in range(4):
        want = GOLDEN[f"{name} {seed}"]
        element = random_weyl_element(chart, Lcg(seed))
        assert random_polynomial(chart.n, Lcg(seed)).serialize() == want["random_polynomial"]
        assert sorted([repr(k), v.serialize()] for k, v in element.terms.items()) == \
            want["random_weyl_element"]
