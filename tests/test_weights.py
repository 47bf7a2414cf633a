"""Generalized weights: assignment structure, induced weights, deviation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ffba import (Field, GeneralizedWeight, compare_constants, induced_weight,
                  parse_series, parse_weight, weight_eval)
from ffba.weights import deviation_range, parse_real_weight


def test_weight_eval_partitions_height():
    g = induced_weight([Fraction(1, 3), Fraction(2, 3)])
    for h in range(60):
        v = weight_eval(g, h)
        assert sum(v) == h
        assert all(x >= 0 for x in v)
    # one coordinate steps at a time
    prev = weight_eval(g, 0)
    for h in range(1, 60):
        cur = weight_eval(g, h)
        diffs = [c - p for c, p in zip(cur, prev)]
        assert sorted(diffs) == [0, 1]
        assert g.assign(h) == diffs.index(1) + 1
        prev = cur


def test_equal_weight_round_robin():
    g = GeneralizedWeight.equal(3)
    assert [g.assign(h) for h in range(1, 7)] == [1, 2, 3, 1, 2, 3]
    assert weight_eval(g, 7) == (3, 2, 2)


def test_assignment_weight_cycles():
    g = GeneralizedWeight.from_assignment(2, (1, 1, 2))
    assert [g.assign(h) for h in range(1, 7)] == [1, 1, 2, 1, 1, 2]
    assert weight_eval(g, 6) == (4, 2)
    assert g.offsets(6) == (0, 4)


@pytest.mark.parametrize("r", [
    [Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 3), Fraction(2, 3)],
    [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)],
    [Fraction(1), Fraction(0)],
])
def test_induced_weight_deviation_bounds(r):
    d = len(r)
    g = induced_weight(r)
    lo_bound = -(1 - Fraction(1, d))
    hi_bound = (d - 1) * (1 - Fraction(1, d))
    for h in range(201):
        v = weight_eval(g, h)
        for s in range(d):
            dev = r[s] * h - v[s]
            assert lo_bound <= dev <= hi_bound, (h, s, dev)


def test_deviation_range_matches_direct_scan():
    r = [Fraction(1, 3), Fraction(2, 3)]
    lo, hi = deviation_range(r, 50)
    g = induced_weight(r)
    devs = [r[s] * h - weight_eval(g, h)[s]
            for h in range(1, 51) for s in range(2)]
    assert lo == min(devs) and hi == max(devs)


def test_ties_break_toward_low_coordinate():
    g = induced_weight([Fraction(1, 2), Fraction(1, 2)])
    assert g.assign(1) == 1
    assert g.assign(2) == 2


def test_parse_weight_formats():
    g = parse_weight("r:1/2,1/2")
    assert g.kind == "real" and g.d == 2
    g = parse_weight("assign:1,2,2", 2)
    assert g.kind == "assign" and weight_eval(g, 3) == (1, 2)
    g = parse_weight("equal", 3)
    assert weight_eval(g, 3) == (1, 1, 1)
    with pytest.raises(ValueError):
        parse_weight("equal")            # needs d
    with pytest.raises(ValueError):
        parse_weight("nonsense")


def test_real_weight_validation():
    with pytest.raises(ValueError):
        parse_real_weight([Fraction(1, 2)])          # sums to 1/2
    with pytest.raises(ValueError):
        parse_real_weight([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        parse_real_weight([])
    assert parse_real_weight(["1/4", "3/4"]) == (Fraction(1, 4),
                                                 Fraction(3, 4))


def test_weight_json_roundtrip():
    for g in (induced_weight([Fraction(1, 2), Fraction(1, 2)]),
              GeneralizedWeight.from_assignment(2, (2, 1))):
        back = GeneralizedWeight.from_json(g.to_json())
        assert back == g
        assert weight_eval(back, 9) == weight_eval(g, 9)
    for g in (parse_weight("r:1/3,2/3"), parse_weight("assign:1,1,2", 2)):
        assert parse_weight(g.to_text(), g.d) == g


def test_one_dim_weight_is_identity():
    g = GeneralizedWeight.one_dim()
    assert weight_eval(g, 5) == (5,)
    assert g.offsets(5) == (0,)


def test_compare_constants_default_precision():
    f = Field(2)
    theta = (parse_series("frac=periodic:[0,1]|[0]", f),
             parse_series("frac=periodic:[0,0,1]|[0]", f))
    gamma = (parse_series("frac=periodic:[1]|[1]", f),
             parse_series("frac=periodic:[1,1]|[1]", f))
    real_val, induced_val = compare_constants(
        theta, gamma, [Fraction(1, 3), Fraction(2, 3)], 4)
    assert real_val is not None and induced_val is not None
    # exponents within the comparison factor q^d of one another
    assert abs(Fraction(real_val.exponent)
               - induced_val.exponent) < 2
