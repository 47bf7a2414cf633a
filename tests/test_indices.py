"""Indices walk: worked traces, growth laws, rationality verdicts."""

from __future__ import annotations

import json
import random
from math import lcm

import pytest
from hypothesis import event, given, settings, strategies as st

from ffba import (Field, GeneralizedWeight, LaurentSeries, PeriodicSource, Poly,
                  RuleSource, expand_rational, indices_sequence, parse_series,
                  parse_weight, rationality_probe)
from ffba.indices import StageStatus

from oracles import (OracleField, dense_rank, poly_mul, rank_walk_column_rescan,
                     rational_period_states)


def _series(f, digits):
    return parse_series("frac=[%s]" % ",".join(map(str, digits)), f)


# ---------------------------------------------------------------------------
# worked traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_walk_of_t_minus_2(q):
    f = Field.of_order(q)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1, stage_budget=8)
    got = [(st.m, st.i, st.j, st.status) for st in tr.stages]
    assert got == [
        (0, 1, 0, StageStatus.FOUND),
        (1, 3, 2, StageStatus.FOUND),
        (2, 3, None, StageStatus.INFINITE_CERTIFIED),
    ]
    assert tr.certified_rational
    assert not tr.exhausted


def test_walk_of_one_over_t():
    f = Field(2)
    th = expand_rational(Poly(f, [1]), Poly(f, [0, 1]))
    tr = indices_sequence(th, ell=1, stage_budget=8)
    got = [(st.m, st.i, st.j) for st in tr.stages]
    assert got == [(0, 1, 0), (1, 2, 1), (2, 2, None)]
    assert tr.stages[-1].status is StageStatus.INFINITE_CERTIFIED
    assert rationality_probe(th, trace=tr).kind == "rational_certified"


def test_walk_of_sparse_rule_series():
    f = Field(2)
    th = parse_series("frac=rule:liminf", f)
    tr = indices_sequence(th, ell=1, stage_budget=5)
    found = [(st.i, st.j) for st in tr.stages]
    assert found == [(1, 0), (3, 2), (5, 4), (7, 6), (9, 8), (11, 10)]
    assert all(st.status is StageStatus.FOUND for st in tr.stages)
    assert not tr.certified_rational


# ---------------------------------------------------------------------------
# growth laws on random inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,ell", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_growth_bounds_random(q, ell):
    f = Field.of_order(q)
    rng = random.Random(1000 * q + ell)
    for _ in range(60):
        th = _series(f, [rng.randrange(q) for _ in range(60)])
        tr = indices_sequence(th, ell=ell, stage_budget=4)
        stages = tr.stages
        assert stages[0].m == 0 and stages[0].j == 0
        prev = None
        for st in stages:
            if st.status is not StageStatus.FOUND:
                assert st.m == stages[-1].m       # only the last can stop
                assert st.j is None
                continue
            if prev is not None:
                assert st.j >= prev.i             # columns pass the last row extent
                assert st.i <= st.j + ell         # the walk's gap law
                assert st.i > prev.i
            prev = st


def test_growth_bounds_two_dimensional():
    f = Field(2)
    rng = random.Random(77)
    w = GeneralizedWeight.equal(2)
    for _ in range(25):
        vec = tuple(_series(f, [rng.randrange(2) for _ in range(50)])
                    for _ in range(2))
        tr = indices_sequence(vec, weight=w, ell=2, stage_budget=3)
        prev = None
        for st in tr.stages:
            if st.status is not StageStatus.FOUND:
                continue
            if prev is not None:
                assert prev.i <= st.j and st.i <= st.j + 2
            prev = st


def _all_invertible_digits(q, count):
    """Greedy digit choice keeping every square block invertible."""
    of = OracleField(2) if q == 2 else OracleField(q)
    digits: list[int] = []

    def block_ok(ds, m):
        rows = [[ds[r + c] if r + c < len(ds) else 0 for c in range(m)]
                for r in range(m)]
        return dense_rank(of, rows) == m

    for pos in range(1, count + 1):
        if pos % 2 == 1:
            m = (pos + 1) // 2
            choice = next(v for v in range(q)
                          if block_ok(digits + [v], m))
        else:
            choice = 0
        digits.append(choice)
    return digits


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_all_invertible_walk_identity(q, ell):
    f = Field.of_order(q)
    digits = _all_invertible_digits(q, 41)
    th = _series(f, digits)
    tr = indices_sequence(th, ell=ell, stage_budget=4)
    for st in tr.stages:
        if st.status is StageStatus.FOUND:
            assert st.i == (st.m + 1) * ell
            assert st.j == st.m * ell


# ---------------------------------------------------------------------------
# verdicts, cutoffs, serialization
# ---------------------------------------------------------------------------

def test_cutoff_marks_exhausted():
    f = Field(2)
    th = parse_series("frac=rule:liminf", f)
    tr = indices_sequence(th, ell=1, stage_budget=3, j_cutoff=2)
    assert tr.exhausted
    last = tr.stages[-1]
    assert last.status is StageStatus.EXHAUSTED and last.j is None
    assert rationality_probe(th, trace=tr).kind == "irrational_witnessed"


def test_verdict_unknown_before_first_stage():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1, stage_budget=8, j_cutoff=1)
    v = rationality_probe(th, trace=tr)
    assert v.kind == "unknown" and v.stages_found == 0


def test_probe_reuses_supplied_trace():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1)
    v = rationality_probe(th, trace=tr)
    assert v.trace is tr


def test_trace_serializes():
    f = Field(3)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1)
    blob = json.dumps(tr.to_json())
    back = json.loads(blob)
    assert back["ell"] == 1
    assert [s["i"] for s in back["stages"]] == [1, 3, 3]
    assert [s["j"] for s in back["stages"]] == [0, 2, None]


def test_stage_budget_caps_found_stages():
    f = Field(2)
    th = parse_series("frac=rule:liminf", f)
    for budget in (1, 2, 4):
        tr = indices_sequence(th, ell=1, stage_budget=budget)
        assert len(tr.stages) <= budget + 1


# ---------------------------------------------------------------------------
# the echelon walk against the column-rescan oracle
# ---------------------------------------------------------------------------

@st.composite
def _walk_inputs(draw):
    """theta over q in {2, 3, 4, 9}, d in {1, 2}, each coordinate a finite
    window (its guarantee cuts the scan), an eventually periodic tail (the
    walk can certify a plateau), a rule without a declared period (only
    j_cutoff stops it, so the cutoff is kept small) or, for q < 9, a
    rational tail num/den with deg den <= 4, often unreduced (the walk's
    echelon stops at the reduced denominator's degree).  Windows are often
    empty or shorter than stage_budget * ell, where the echelon starts at
    the data's width; cutoffs below the least starting width occur, and
    d = 2 often mixes a bounded coordinate with an unbounded one or a
    rational coordinate with a periodic one.  Digits lean towards 0 so
    that rank deficiencies, and hence wide scans, are common."""
    f = Field.of_order(draw(st.sampled_from([2, 3, 4, 9])))
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    d = draw(st.sampled_from([1, 2]))
    ell, budget = draw(st.sampled_from([1, 2])), draw(st.integers(0, 8))
    code = st.sampled_from([0, 0, 0] + list(range(1, f.q)))

    def digits(lo: int, hi: int) -> list[int]:
        n = draw(st.integers(lo, hi))
        return draw(st.lists(code, min_size=n, max_size=n))

    kinds = ["finite", "periodic", "rule"] + (["rational"] if f.q < 9 else [])
    shared = draw(st.sampled_from(kinds + [None, "bounded+unbounded", "rational+periodic"]))
    if shared == "bounded+unbounded" and d == 2:
        coords = draw(st.permutations([draw(st.sampled_from(["finite", "periodic"])), "rule"]))
    elif shared == "rational+periodic" and d == 2 and f.q < 9:
        coords = draw(st.permutations(["rational", "periodic"]))
    else:
        coords = [shared if shared in kinds else draw(st.sampled_from(kinds))
                  for _ in range(d)]
    theta, bounds = [], []
    for kind in coords:
        if kind == "finite":
            n = draw(st.sampled_from([0, max(budget * ell - 1, 0), 60]))
            theta.append(LaurentSeries.from_frac_coeffs(f, digits(0, n), tail="finite"))
            bounds.append(None)
        elif kind == "periodic":
            pre, per = digits(0, 4), digits(1, 4)
            theta.append(LaurentSeries(f, Poly.zero(f), PeriodicSource(pre, per)))
            bounds.append((len(pre), len(per)))
        elif kind == "rational":
            # den = core * common, num = top * common: the common factor
            # cancels, and periods stay below 64 for the oracle's rescans
            common = digits(0, 1) + [1]
            core = poly_mul(of, digits(1, 3 if f.q == 2 else 2) + [1], common)
            num = poly_mul(of, digits(0, 4), common)
            theta.append(expand_rational(Poly(f, num), Poly(f, core)))
            bounds.append(rational_period_states(of, num, core, 0)[0])
        else:
            theta.append(LaurentSeries(f, Poly.zero(f), RuleSource(
                "drawn", lambda i, ds=digits(1, 60): ds[(i - 1) % len(ds)])))
            bounds.append(None)
    weight = parse_weight(draw(st.sampled_from(["equal", "r:1/3,2/3"])), 2) \
        if d == 2 else GeneralizedWeight.one_dim()
    if any(th.guarantee is None for th, b in zip(theta, bounds) if b is None):
        j_cutoff = draw(st.integers(1, 40))
    else:
        j_cutoff = draw(st.sampled_from([4096, 1, 2, 3, 5, 7, 9, 17, 30]))
    bound = None if None in bounds else \
        max(a for a, _ in bounds) + lcm(*(p for _, p in bounds))
    return f, tuple(theta), weight, ell, budget, j_cutoff, bound


def _walk_and_oracle(f, theta, weight, ell, budget, j_cutoff, bound):
    tr = indices_sequence(theta, weight, ell, budget, j_cutoff)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    want = rank_walk_column_rescan(
        of, lambda s, n: theta[s].frac.coefficient(n),
        [th.guarantee for th in theta], weight.eval, weight.assign,
        ell, budget, j_cutoff, bound)
    return [(s.m, s.i, s.j, s.status.value, s.scan_width) for s in tr.stages], want


@settings(max_examples=300, deadline=None)
@given(_walk_inputs())
def test_walk_matches_column_rescan_oracle(case):
    got, want = _walk_and_oracle(*case)
    assert got == want
    f, theta, weight, ell, budget, j_cutoff, bound = case
    covers = [th.guarantee for th in theta if th.guarantee is not None]
    event("window shorter than budget * ell" if covers and min(covers) < budget * ell
          else "j_cutoff < 8" if j_cutoff < 8 else "other")
    event("rational coordinate" if any(th.frac.kind == "rational" for th in theta)
          else "no rational coordinate")


@pytest.mark.parametrize("q", [2, 3, 5])
def test_walk_matches_oracle_on_finite_windows(q):
    """Dense random windows end the walk both ways: the column scan reaches
    the guarantee, or a new row of the row scan would pass it."""
    f = Field.of_order(q)
    rng = random.Random(300 + q)
    ends = set()
    for _ in range(30):
        d, ell = rng.choice([1, 2]), rng.choice([1, 2])
        theta = tuple(LaurentSeries.from_frac_coeffs(
            f, [rng.randrange(q) for _ in range(rng.randrange(10, 40))])
            for _ in range(d))
        weight = parse_weight(rng.choice(["equal", "r:1/3,2/3"]), 2) if d == 2 \
            else GeneralizedWeight.one_dim()
        got, want = _walk_and_oracle(f, theta, weight, ell, 12, 4096, None)
        assert got == want
        ends.add((got[-1][3], got[-1][1] is None))
    assert {("exhausted_at_cutoff", False), ("exhausted_at_cutoff", True)} <= ends


def test_walk_widens_to_the_cutoff():
    """All-zero digits never reach full row rank: the echelon doubles its
    width up to j_cutoff and the stage reports exactly that width."""
    f = Field(2)
    zeros = LaurentSeries(f, Poly.zero(f), RuleSource("zeros", lambda i: 0))
    for cutoff in (1, 7, 8, 9, 33, 100):
        tr = indices_sequence(zeros, ell=1, j_cutoff=cutoff)
        assert [(s.m, s.i, s.j, s.status, s.scan_width) for s in tr.stages] == \
            [(0, 1, 0, StageStatus.FOUND, 0), (1, 1, None, StageStatus.EXHAUSTED, cutoff)]
