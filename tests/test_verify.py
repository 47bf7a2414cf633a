"""Constant evaluation, matrix condition, structure reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from ffba import (ComparisonReport, DepthBoundedConstant, ElementCodeError,
                  Field, FiniteSource, GeneralizedWeight, InsufficientPrecisionError,
                  LaurentSeries, PeriodicSource, Poly, RationalSource, RuleSource,
                  ZERO, c_depth, c_depth_weighted, c_liminf_depth,
                  compare_weighted_constants, expand_rational, find_witness_small,
                  indices_sequence, liminf_structure, m0_structure, make_liminf_theta,
                  matrix_condition_check, merge_reports, parse_series, qexp)
from ffba.verify import alternation_pairs

from oracles import (OracleField, brute_constant_exponent, odometer_scan,
                     poly_divmod, poly_mul, rational_period_states,
                     rational_recurrence_order, scan_cap)


def _periodic(f, rng, pre_len, per_len):
    pre = ",".join(str(rng.randrange(f.q)) for _ in range(pre_len))
    per = ",".join(str(rng.randrange(f.q)) for _ in range(max(1, per_len)))
    return parse_series(f"frac=periodic:[{pre}]|[{per}]", f)


def _tails(series, n):
    return [s.frac_coeffs(n) for s in series]


# ---------------------------------------------------------------------------
# depth-bounded constants
# ---------------------------------------------------------------------------

def test_worked_constant_is_exact():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1,0,1]|[0]", f)
    rep = c_depth(th, g, 8)
    assert rep.value == qexp(-2)
    assert rep.witness == Poly(f, [0, 1])
    assert rep.witness_depths == (3,)
    assert rep.depth == 8 and not rep.precision_limited


def test_constant_monotone_in_depth():
    rng = random.Random(11)
    for q in (2, 3):
        f = Field.of_order(q)
        for _ in range(15):
            th = _periodic(f, rng, 3, 3)
            g = _periodic(f, rng, 3, 3)
            vals = [c_depth(th, g, h).value for h in range(0, 7, 2)]
            for lo, hi in zip(vals, vals[1:]):
                assert hi <= lo


@pytest.mark.parametrize("q", [2, 3])
def test_constant_matches_brute_force(q):
    f = Field.of_order(q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    rng = random.Random(300 + q)
    depth = 30
    for _ in range(25):
        th = _periodic(f, rng, 2, 3)
        g = _periodic(f, rng, 2, 3)
        rep = c_depth(th, g, 3, prec=depth)
        e, _, zero = brute_constant_exponent(
            of, _tails([th], depth + 5), _tails([g], depth + 5),
            lambda h: (h,), 3, depth)
        assert rep.zero_witness == zero
        if not zero:
            assert rep.value == qexp(e)


def test_weighted_constant_matches_brute_force():
    f = Field(2)
    of = OracleField(2)
    w = GeneralizedWeight.equal(2)
    rng = random.Random(313)
    depth = 24
    for _ in range(20):
        vec = tuple(_periodic(f, rng, 2, 3) for _ in range(2))
        gam = tuple(_periodic(f, rng, 2, 3) for _ in range(2))
        rep = c_depth_weighted(vec, gam, w, 3, prec=depth)
        e, _, zero = brute_constant_exponent(
            of, _tails(vec, depth + 5), _tails(gam, depth + 5),
            w.eval, 3, depth)
        assert rep.zero_witness == zero
        if not zero:
            assert rep.value == qexp(e)


def test_zero_witness_when_target_is_hit_exactly():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1]|[0]", f)    # <t . theta>
    rep = c_depth(th, g, 4)
    assert rep.zero_witness and rep.value == ZERO
    assert rep.witness == Poly(f, [0, 1])


def test_rational_pair_scans_to_its_recurrence_order():
    """With P primitive of degree 16, a/P has period 2^16 - 1, but two
    tails over P are certified after 16 digits.  Two zero tails have
    recurrence order 0, and the scan still reads one digit."""
    f = Field(2)
    p = Poly(f, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1])
    theta, gamma = expand_rational(Poly(f, [1]), p), expand_rational(Poly(f, [0, 1]), p)
    rep = c_depth(theta, gamma, 2)
    assert rep.scan_caps == (16,) and rep.zero_witness and rep.witness == Poly(f, [0, 1])
    zero = expand_rational(Poly.zero(f), p)
    rep = c_depth(zero, zero, 2)
    assert rep.scan_caps == (1,) and rep.zero_witness and rep.witness == Poly(f, [1])


def test_precision_cap_reports_limit():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1,0,1]|[0]", f)
    rep = c_depth(th, g, 8, prec=2)
    assert rep.precision_limited and rep.skipped > 0
    assert rep.scan_caps == (2,)
    full = c_depth(th, g, 8)
    assert rep.value >= full.value


# every report field against the enumeration in tests/oracles.py; the
# degree bound keeps each enumeration under about a hundred candidates
_MAX_DEG = {2: 5, 3: 3, 4: 2, 5: 2, 9: 1}


@st.composite
def _coordinate(draw, f, of, kind):
    """One tail as (digit function, (preperiod, period) or None, guarantee
    or None, package source, (num, den) or None).  'hit' is filled in
    later from theta."""
    q = of.q
    code = st.sampled_from([0, 0] + list(range(1, q)))
    codes = lambda lo, hi: draw(st.lists(code, min_size=lo, max_size=hi))
    if kind in ("periodic", "sparse"):
        pre = codes(0, 4) if kind == "periodic" else \
            draw(st.lists(st.sampled_from([0, 0, 0, 1]), max_size=6))
        per = codes(1, 4) if kind == "periodic" else [0]
        fn = lambda i: pre[i - 1] if i <= len(pre) else per[(i - 1 - len(pre)) % len(per)]
        return fn, (len(pre), len(per)), None, PeriodicSource(pre, per), None
    if kind == "finite":
        ds = codes(8, 20)
        return (lambda i: ds[i - 1]), None, len(ds), FiniteSource(ds), None
    if kind == "rational":
        return _rational(f, of, codes(0, 4), codes(0, 3) + [draw(st.integers(1, q - 1))])
    ds = codes(1, 30)
    fn = lambda i: ds[(i - 1) % len(ds)]
    return fn, None, None, RuleSource("drawn", fn), None


def _rational(f, of, num, den):
    """The tail of num/den, digits and period from the remainder-recording
    oracle."""
    (a, p), _ = rational_period_states(of, num, den, 0)
    digits = rational_period_states(of, num, den, a + p)[1]
    fn = lambda i: digits[i - 1] if i <= a else digits[a + (i - 1 - a) % p]
    return fn, (a, p), None, RationalSource(Poly(f, num), Poly(f, den)), (num, den)


def _hit(f, of, theta, n0):
    """<N0 theta> for a periodic or rational theta, of the same kind."""
    if theta[4] is not None:
        num, den = theta[4]
        return _rational(f, of, poly_divmod(of, poly_mul(of, n0, num), den)[1], den)
    fn, (a, p) = theta[:2]
    digits = [0] * (a + p)
    for i in range(1, a + p + 1):
        for k, c in enumerate(n0):
            digits[i - 1] = of.add(digits[i - 1], of.mul(c, fn(i + k)))
    pre, per = digits[:a], digits[a:]
    return (lambda i: digits[i - 1] if i <= a else per[(i - 1 - a) % p]), (a, p), None, \
        PeriodicSource(pre, per), None


@st.composite
def _constant_inputs(draw, dims=(1, 1, 2, 2, 3), precs=(None, None, 1, 2, 3, 6, 11),
                     kinds=("periodic", "sparse", "finite", "rule", "rational"),
                     orders=(2, 3, 4, 5, 9)):
    q = draw(st.sampled_from(orders))
    f = Field.of_order(q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    d = draw(st.sampled_from(dims))
    max_deg = draw(st.integers(0, _MAX_DEG[q] - (d == 3)))
    deg_lo = draw(st.sampled_from([0, 0, 0, max_deg, max_deg // 2]))
    prec = draw(st.sampled_from(precs))
    thetas, gammas = [], []
    for _ in range(d):
        th = draw(_coordinate(f, of, draw(st.sampled_from(kinds))))
        kind = draw(st.sampled_from(kinds + ("hit",)))
        if kind == "hit" and th[1] is not None:
            gm = _hit(f, of, th, draw(st.lists(st.integers(0, q - 1), min_size=1,
                                               max_size=max_deg + 1)))
        else:
            gm = draw(_coordinate(f, of, "periodic" if kind == "hit" else kind))
        thetas.append(th)
        gammas.append(gm)
    weight = None if d == 1 else draw(st.sampled_from([
        GeneralizedWeight.equal(d), GeneralizedWeight.from_assignment(d, [d, 1]),
        GeneralizedWeight.from_assignment(d, [1, 1, 1, d]),
        GeneralizedWeight.from_real([Fraction(1, 2 ** s) for s in range(1, d)]
                                    + [Fraction(1, 2 ** (d - 1))])]))
    return f, of, thetas, gammas, weight, max_deg, deg_lo, prec


def _series_of(f, coords):
    return tuple(LaurentSeries(f, Poly.zero(f), c[3]) for c in coords)


def _oracle_coords(of, thetas, gammas, max_deg, prec, recurrence=True):
    """Per coordinate (theta tail, gamma tail, cap, certified), or None when
    a cap is below one digit.  With recurrence, two rational tails certify
    an exact zero at the degree of their reduced common denominator (the
    scan reads at least one digit); without, at preperiod plus period."""
    out = []
    for (tf, tp, tg, _, tr), (gf, gp, gg, _, gr) in zip(thetas, gammas):
        width = max(1, rational_recurrence_order(of, (tr, gr))) \
            if recurrence and tr is not None and gr is not None else None
        cap, certified = scan_cap(tp, gp, tg, gg, max_deg, prec, zero_width=width)
        if cap < 1:
            return None
        out.append(([tf(i) for i in range(1, cap + max_deg + 1)],
                    [gf(i) for i in range(1, cap + 1)], cap, certified))
    return out


@settings(max_examples=200, deadline=None)
@given(_constant_inputs())
def test_constant_report_matches_odometer_oracle(case):
    _check_against_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(_constant_inputs(dims=(2, 3), precs=(1, 2, 3), kinds=("sparse", "finite", "rule"),
                        orders=(2, 2, 3)))
def test_multi_coordinate_skips_match_odometer_oracle(case):
    """Several uncertified coordinates under short caps and lopsided
    weights: the inclusion-exclusion over which of them match to the cap,
    and the ceilings that decide whether a candidate is skipped."""
    _check_against_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(_constant_inputs(precs=(None,), kinds=("rational",)))
def test_rational_pairs_match_odometer_oracle(case):
    """Rational theta^s and gamma^s certify an exact zero at the degree of
    their reduced common denominator, and scans that stop there agree
    with scans over a whole period."""
    _check_against_oracle(*case)


def _check_against_oracle(f, of, thetas, gammas, weight, max_deg, deg_lo, prec):
    vec, gvec = _series_of(f, thetas), _series_of(f, gammas)
    coords = _oracle_coords(of, thetas, gammas, max_deg, prec)
    if coords is None:
        with pytest.raises(InsufficientPrecisionError):
            c_depth_weighted(vec, gvec, weight, max_deg, prec=prec, deg_lo=deg_lo)
        return
    got = c_depth_weighted(vec, gvec, weight, max_deg, prec=prec, deg_lo=deg_lo)
    heights = weight.eval if weight is not None else (lambda h: (h,))
    best, digits, depths, skipped, zero = odometer_scan(
        of, coords, deg_lo, max_deg, lambda h: (heights(h),))
    rational = [th[4] is not None and gm[4] is not None for th, gm in zip(thetas, gammas)]
    if prec is None and any(rational):
        # a full period scans past the recurrence order and sees nothing new
        event("rational pair")
        assert odometer_scan(of, _oracle_coords(of, thetas, gammas, max_deg, None, False),
                             deg_lo, max_deg, lambda h: (heights(h),)) == \
            (best, digits, depths, skipped, zero)
    caps = tuple(c[2] for c in coords)
    if zero is not None:
        want = DepthBoundedConstant(ZERO, Poly(f, zero), None, deg_lo, max_deg,
                                    caps, False, 0, True)
    else:
        want = DepthBoundedConstant(
            qexp(best[0]) if best[0] is not None else None,
            Poly(f, digits[0]) if digits[0] else None, depths[0], deg_lo,
            max_deg, caps, skipped > 0, skipped, False)
    assert got == want
    event("zero" if got.zero_witness else "skipped" if got.skipped else "value")
    if weight is None or weight.kind != "real":
        return
    event("comparison")
    got = compare_weighted_constants(vec, gvec, weight.real, max_deg, prec=prec)
    best, _, _, skipped, zero = odometer_scan(
        of, coords, 0, max_deg,
        lambda h: (tuple(r * h for r in weight.real), weight.eval(h)))
    real, induced = best
    if zero is not None:
        want = ComparisonReport(None, None, Fraction(0), weight.d, True, 0, True)
    elif real is None or induced is None:
        want = ComparisonReport(None if real is None else Fraction(real), induced,
                                None, weight.d, False, skipped)
    else:
        diff = abs(Fraction(real) - induced)
        want = ComparisonReport(Fraction(real), induced, diff, weight.d,
                                diff < weight.d, skipped)
    assert got == want


@pytest.mark.parametrize("bad", [2, 300, -1])
def test_rule_codes_are_checked_where_tails_are_fetched(bad):
    """Rule digits are only known when pulled: the scans and the walk
    check them there, over F_2 too, where a bad code would otherwise
    reach the XOR step unnoticed."""
    f = Field(2)
    bad_rule = LaurentSeries(f, Poly.zero(f), RuleSource("bad", lambda i: bad * (i == 3)))
    good = parse_series("frac=periodic:[1]|[0]", f)
    for call in (lambda: c_depth(bad_rule, good, 2), lambda: c_depth(good, bad_rule, 2),
                 lambda: indices_sequence(bad_rule, ell=1)):
        with pytest.raises(ElementCodeError):
            call()


def test_deg_lo_window():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1,0,1]|[0]", f)
    rep = c_depth_weighted(th, g, None, 6, deg_lo=2)
    assert rep.deg_lo == 2
    assert rep.witness.deg >= 2


# ---------------------------------------------------------------------------
# windowed liminf scans and merging
# ---------------------------------------------------------------------------

def test_liminf_window_full_range_equals_c_depth():
    f = Field(2)
    rng = random.Random(17)
    for _ in range(10):
        th = _periodic(f, rng, 2, 3)
        g = _periodic(f, rng, 2, 3)
        assert c_liminf_depth(th, g, 0, 5) == c_depth(th, g, 5).value


def test_liminf_window_zero_over_zero():
    f = Field(2)
    z = parse_series("frac=periodic:[]|[0]", f)
    assert c_liminf_depth(z, z, 0, 3) == ZERO


def test_liminf_windows_match_brute_force():
    f = Field(2)
    of = OracleField(2)
    rng = random.Random(23)
    depth = 24
    for _ in range(15):
        th = _periodic(f, rng, 2, 3)
        g = _periodic(f, rng, 2, 3)
        got = c_liminf_depth(th, g, 2, 5, prec=depth)
        e, _, zero = brute_constant_exponent(
            of, _tails([th], depth + 8), _tails([g], depth + 8),
            lambda h: (h,), 5, depth, deg_lo=2)
        if zero:
            assert got == ZERO
        else:
            assert got == qexp(e)


def test_merge_reports_equals_single_scan():
    f = Field(3)
    rng = random.Random(29)
    th = _periodic(f, rng, 2, 3)
    g = _periodic(f, rng, 2, 3)
    full = c_depth_weighted(th, g, None, 6)
    shards = [c_depth_weighted(th, g, None, 2),
              c_depth_weighted(th, g, None, 4, deg_lo=3),
              c_depth_weighted(th, g, None, 6, deg_lo=5)]
    merged = merge_reports(*shards)
    assert merged.value == full.value
    assert (merged.deg_lo, merged.deg_hi) == (0, 6)


def test_merge_rejects_gaps():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1,0,1]|[0]", f)
    a = c_depth_weighted(th, g, None, 2)
    b = c_depth_weighted(th, g, None, 6, deg_lo=5)
    with pytest.raises(ValueError):
        merge_reports(a, b)
    with pytest.raises(ValueError):
        merge_reports()


# ---------------------------------------------------------------------------
# matrix condition
# ---------------------------------------------------------------------------

def test_matrix_condition_agrees_on_random_inputs():
    rng = random.Random(37)
    for q in (2, 3):
        f = Field.of_order(q)
        for _ in range(100):
            d = rng.choice([1, 2])
            vec = tuple(_periodic(f, rng, 2, 3) for _ in range(d))
            gam = tuple(_periodic(f, rng, 2, 3) for _ in range(d))
            theta = vec[0] if d == 1 else vec
            gamma = gam[0] if d == 1 else gam
            w = GeneralizedWeight.equal(d) if d == 2 else None
            deg = rng.randrange(0, 4)
            coeffs = [rng.randrange(q) for _ in range(deg)] + \
                     [rng.randrange(1, q)]
            n = Poly(f, coeffs)
            rep = matrix_condition_check(theta, gamma, w, n=n,
                                         ell=rng.randrange(0, 3))
            assert rep.agree


def test_matrix_condition_guards():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1]|[0]", f)
    with pytest.raises(ValueError):
        matrix_condition_check(th, g, n=None)
    with pytest.raises(ValueError):
        matrix_condition_check(th, g, n=Poly.zero(f))
    with pytest.raises(ValueError):
        matrix_condition_check(th, g, n=Poly(f, [1]), ell=-1)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_find_witness_worked_example():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    g = parse_series("frac=periodic:[1,0,1]|[0]", f)
    rep = find_witness_small(th, g)
    assert rep.found and rep.rows <= 2
    assert rep.witness == Poly(f, [0, 1])
    assert rep.value == qexp(-2) and rep.value_is_exact
    assert rep.bound == qexp(-2)


def test_find_witness_absent_for_zero_theta():
    f = Field(2)
    z = parse_series("frac=periodic:[]|[0]", f)
    g = parse_series("frac=periodic:[1]|[0]", f)
    rep = find_witness_small(z, g)
    assert not rep.found and rep.witness is None


# ---------------------------------------------------------------------------
# structure reports
# ---------------------------------------------------------------------------

def test_m0_structure_examples():
    f2, f3 = Field(2), Field(3)
    th = parse_series("frac=periodic:[0,1]|[0]", f2)
    rep = m0_structure(th, 8)
    assert rep.m0 == 1 and not rep.pattern_consistent
    assert rep.violation == (1, 2)
    assert rep.alternations == [(1, 2)]

    rat = expand_rational(Poly(f3, [1]), Poly(f3, [2, 1]))  # 1/(t-1)
    rep = m0_structure(rat, 8)
    assert rep.m0 == 2 and rep.pattern_consistent and rep.violation is None

    z = parse_series("frac=periodic:[]|[0]", f2)
    rep = m0_structure(z, 6)
    assert rep.m0 == 1 and rep.pattern_consistent
    assert rep.spectrum == [False] * 6

    blob = rep.to_json()
    assert blob["m0"] == 1 and blob["spectrum"] == [False] * 6


def test_liminf_theta_structure():
    f = Field(2)
    th = make_liminf_theta(f)
    assert [i for i in range(1, 63) if th.frac.coefficient(i)] == \
        [2, 6, 14, 30, 62]
    rep = liminf_structure(th, 16, 3)
    assert rep.meets_k and rep.count >= 3
    assert rep.spectrum[1] and not rep.spectrum[2]   # sizes 2 and 3
    # even sizes invertible, odd singular
    for m in range(1, 17):
        assert rep.spectrum[m - 1] == (m % 2 == 0)
    assert rep.alternations[:2] == [(1, 2), (3, 4)]


def test_liminf_structure_respects_k():
    f = Field(2)
    th = make_liminf_theta(f)
    assert not liminf_structure(th, 4, 5).meets_k
    assert liminf_structure(th, 4, 2).meets_k


def test_alternation_pairs_greedy():
    T, F = True, False
    assert alternation_pairs([F, T, F, T]) == [(1, 2), (3, 4)]
    assert alternation_pairs([T, F, T, F, T]) == [(2, 3), (4, 5)]
    assert alternation_pairs([F, F, F]) == []
    assert alternation_pairs([]) == []


# ---------------------------------------------------------------------------
# real vs. induced weight comparison
# ---------------------------------------------------------------------------

def test_compare_weighted_constants_within_bound():
    f = Field(2)
    a = parse_series("frac=periodic:[0,1]|[0]", f)
    b = parse_series("frac=periodic:[0,0,1]|[0]", f)
    g1 = parse_series("frac=periodic:[1]|[1]", f)
    g2 = parse_series("frac=periodic:[1,1]|[1]", f)
    rep = compare_weighted_constants((a, b), (g1, g2),
                                     [Fraction(1, 2), Fraction(1, 2)], 4)
    assert rep.within_bound and not rep.zero_witness
    assert isinstance(rep.real_exponent, Fraction)
    assert rep.real_value is not None and rep.induced_value is not None
    assert abs(rep.difference) <= rep.bound


def test_compare_weighted_constants_zero_witness():
    f = Field(2)
    a = parse_series("frac=periodic:[0,1]|[0]", f)
    b = parse_series("frac=periodic:[0,0,1]|[0]", f)
    # targets hit exactly by N = t^2 + t
    g1 = parse_series("frac=periodic:[1]|[0]", f)
    g2 = parse_series("frac=periodic:[1,1]|[0]", f)
    rep = compare_weighted_constants((a, b), (g1, g2),
                                     [Fraction(1, 2), Fraction(1, 2)], 4)
    assert rep.zero_witness
    assert rep.real_value == ZERO and rep.induced_value == ZERO


@pytest.mark.parametrize("scan", [
    lambda th, g: c_depth_weighted(th, g, GeneralizedWeight.equal(2), 2),
    lambda th, g: compare_weighted_constants(th, g, ["1/2", "1/2"], 2),
], ids=["c_depth_weighted", "compare_weighted_constants"])
def test_a_target_of_another_shape_or_field_is_refused(scan):
    """gamma must have theta's coordinate count and field; every constant
    scan checks both before it starts."""
    f2, f3 = Field(2), Field(3)
    theta = (parse_series("frac=periodic:[0,1]|[0]", f2),
             parse_series("frac=periodic:[0,0,1]|[0]", f2))
    with pytest.raises(ValueError, match="coordinates"):
        scan(theta, theta[:1])
    with pytest.raises(ValueError, match="different fields"):
        scan(theta, (parse_series("frac=periodic:[1]|[2]", f3),) * 2)


_T2 = "frac=periodic:[0,1]|[0]"     # theta = t^-2


@pytest.mark.parametrize("scan", [
    lambda th, g: c_depth(th, g, 2),
    find_witness_small,
    lambda th, g: matrix_condition_check(th, g, n=Poly(th.field, [0, 1])),
], ids=["c_depth", "find_witness_small", "matrix_condition_check"])
@pytest.mark.parametrize("theta, gamma, match", [
    ((2, None, _T2), (3, None, "frac=periodic:[2]|[0]"), "different fields"),
    ((2, None, _T2), (3, None, "frac=periodic:[1]|[0]"), "different fields"),
    ((9, None, _T2), (9, [2, 2, 1], "frac=periodic:[1]|[0]"), "different fields"),
    ((2, None, _T2), (2, None, ("frac=periodic:[1]|[0]",) * 2), "coordinates"),
], ids=["F3-digit-2", "F3-digit-1", "F9-other-modulus", "two-coordinates"])
def test_every_one_dimensional_scan_checks_gamma_against_theta(scan, theta, gamma, match):
    """A gamma over another field (even of the same order) or with another
    coordinate count is refused, not read as codes of theta's field."""
    def series(q, modulus, text):
        f = Field.of_order(q, modulus)
        return parse_series(text, f) if isinstance(text, str) else \
            tuple(parse_series(t, f) for t in text)
    with pytest.raises(ValueError, match=match):
        scan(series(*theta), series(*gamma))


def test_a_one_coordinate_tuple_is_a_target():
    f = Field(2)
    theta, gamma = parse_series(_T2, f), parse_series("frac=periodic:[1,0,1]|[0]", f)
    assert find_witness_small(theta, (gamma,)) == find_witness_small(theta, gamma)
    n = Poly(f, [0, 1])
    assert matrix_condition_check(theta, (gamma,), n=n) == matrix_condition_check(theta, gamma, n=n)
