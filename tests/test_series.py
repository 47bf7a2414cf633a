"""Laurent series sources, expansion, absolute values, serialization."""

from __future__ import annotations

import random
from functools import reduce

import pytest
from hypothesis import event, given, settings, strategies as st

from ffba import (Field, HankelView, LaurentSeries, Poly, ZERO, delta_entry,
                  expand_rational, find_witness_small, frac_abs, left_null_vector,
                  matrix_condition_check, parse_series, poly_times_series_frac, qexp,
                  register_rule, rule_source, series_from_json, series_roundtrip_check,
                  series_to_text)
from ffba import indices_sequence
from ffba.errors import ElementCodeError, FfbaError, InsufficientPrecisionError
from ffba.qval import BelowLimit
from ffba.series import (FiniteSource, PeriodicSource, RationalSource,
                         RuleSource, as_vector, period_bound, recurrence_bound)
from oracles import (OracleField, common_denominator_order, left_kernel_basis,
                     poly_mul, poly_trim, rational_expansion, rational_period_states,
                     rational_recurrence_order, stacked_matrix)


def _oracle_of(field: Field) -> OracleField:
    return OracleField(field.p, field.k,
                       list(field.modulus) if field.modulus else None)


# ---------------------------------------------------------------------------
# rational expansion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_expand_rational_matches_long_division(q):
    field = Field.of_order(q)
    o = _oracle_of(field)
    rng = random.Random(q * 401)
    for _ in range(60):
        num = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(6))])
        den = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
        if den.is_zero:
            continue
        series = expand_rational(num, den)
        poly_o, tail_o = rational_expansion(o, list(num.coeffs),
                                            list(den.coeffs), 30)
        assert list(series.poly_part.coeffs) == poly_o
        assert series.frac_coeffs(30) == tail_o


def test_expand_rational_worked_example():
    f = Field.of_order(2)
    # 1/(t^2 + 1) over F_2: tail 0,1,0,1,...
    s = expand_rational(Poly(f, [1]), Poly(f, [1, 0, 1]))
    assert s.poly_part.is_zero
    assert s.frac_coeffs(6) == [0, 1, 0, 1, 0, 1]
    pre, per = s.frac.period_info()
    assert (pre, per) == (0, 2)


def test_period_info_is_minimal():
    f = Field.of_order(3)
    rng = random.Random(99)
    for _ in range(40):
        num = Poly(f, [rng.randrange(3) for _ in range(4)])
        den = Poly(f, [rng.randrange(3) for _ in range(1, 4)] + [1])
        s = expand_rational(num, den)
        pre, per = s.frac.period_info()
        coeffs = s.frac_coeffs(pre + 3 * per + 8)
        # claimed period really repeats
        for i in range(pre, len(coeffs) - per):
            assert coeffs[i] == coeffs[i + per]
        # and no shorter period or preperiod does
        for shorter in range(1, per):
            if per % shorter:
                continue
            ok = all(coeffs[i] == coeffs[i + shorter]
                     for i in range(pre, len(coeffs) - shorter))
            assert not ok, (num, den, pre, per, shorter)


# den degree per q, kept small enough for the state-recording oracle; over
# F_17 (q * q > 256) the packed giant steps take linalg's entrywise path
_CORE_LEN = {2: 6, 3: 4, 4: 4, 9: 3, 17: 3}


@st.composite
def _rationals(draw, q=None):
    """num/den with den = t^e * core * common and num = top * common: a
    power of t gives a preperiod, a common factor leaves the fraction
    unreduced; constant den, num = 0 and deg num >= deg den all occur."""
    q = q or draw(st.sampled_from(sorted(_CORE_LEN)))
    field = Field.of_order(q)
    o = _oracle_of(field)
    code = st.integers(0, q - 1)
    core = draw(st.lists(code, min_size=1, max_size=_CORE_LEN[q]).filter(any))
    common = draw(st.lists(code, min_size=1, max_size=2).filter(any))
    top = draw(st.lists(code, max_size=8))
    den = poly_mul(o, [0] * draw(st.integers(0, 3)) + core, common)
    return field, o, poly_mul(o, top, common), den


@settings(max_examples=300, deadline=None)
@given(_rationals(), st.sampled_from(["digits", "period"]), st.data())
def test_rational_source_matches_state_oracle(case, order, data):
    """period_info and the first a + 2p + 8 digits agree with the oracle
    that records remainders, whether digits or the period come first, read
    by coefficient() and by digits(start, stop) slices."""
    field, o, num, den = case
    (a, p), want = rational_period_states(o, num, den, 0)
    want = rational_period_states(o, num, den, a + 2 * p + 8)[1]
    n = len(want)
    dn, nn = len(poly_trim(den)) - 1, len(poly_trim(num)) - 1
    event("preperiod > 0" if a else "purely periodic")
    event("constant den" if dn == 0 else "num = 0" if nn < 0
          else "deg num >= deg den" if nn >= dn else "proper")
    by_index = expand_rational(Poly(field, num), Poly(field, den)).frac
    by_slice = expand_rational(Poly(field, num), Poly(field, den)).frac
    if order == "digits":
        first = data.draw(st.integers(0, n), label="digits read first")
        assert [by_index.coefficient(i) for i in range(1, first + 1)] == want[:first]
        assert by_slice.digits(1, first) == want[:first]
    assert by_index.period_info() == by_slice.period_info() == (a, p)
    assert [by_index.coefficient(i) for i in range(1, n + 1)] == want
    start = data.draw(st.integers(1, n), label="slice start")
    stop = data.draw(st.integers(start - 1, n), label="slice stop")
    assert by_slice.digits(start, stop) == want[start - 1:stop]
    assert by_slice.digits(1, n) == want


@settings(max_examples=200, deadline=None)
@given(_rationals(), st.data())
def test_rational_digits_do_not_depend_on_what_was_read_before(case, data):
    """Random digits(start, stop) ranges, read before and after
    period_info() and often past preperiod + period, are the
    shift-and-divide expansion's digits."""
    field, o, num, den = case
    (a, p), _ = rational_period_states(o, num, den, 0)
    n = a + 3 * p + 8
    want = rational_expansion(o, num, den, n)[1]
    src = RationalSource(Poly(field, num), Poly(field, den))
    search_at = data.draw(st.integers(0, 4), label="ranges read before period_info")
    for k in range(5):
        if k == search_at:
            assert src.period_info() == (a, p)
        start = data.draw(st.integers(1, n), label="start")
        stop = data.draw(st.integers(start - 1, n), label="stop")
        if k >= search_at and stop > a + p:
            event("range past a + p after the period search")
        assert src.digits(start, stop) == want[start - 1:stop]


def test_rational_digits_of_a_negative_stop_are_empty():
    """digits(1, -3) is empty whatever was read before, as for a periodic
    source; the cache of 8 digits must not be sliced from its end."""
    f = Field.of_order(2)
    src = parse_series("frac=rational:[1]/[1,1,0,1]", f).frac
    assert src.digits(1, -3) == []
    assert src.digits(1, 8) == [0, 0, 1, 0, 1, 1, 1, 0]
    assert src.digits(1, -3) == [] and src.digits(2, 0) == []


@settings(max_examples=200, deadline=None)
@given(_rationals(), st.data())
def test_recurrence_bound_is_the_oracle_order_and_below_period_bound(case, data):
    """For a pair of rational tails, reduced or not, recurrence_bound is the
    degree of the lcm of the reduced denominators, and never above
    period_bound."""
    field, o, num, den = case
    _, _, num2, den2 = data.draw(_rationals(field.q), label="second tail")
    pair = tuple(expand_rational(Poly(field, a), Poly(field, b))
                 for a, b in ((num, den), (num2, den2)))
    bound = recurrence_bound(pair)
    assert bound == rational_recurrence_order(o, [(num, den), (num2, den2)])
    assert bound <= period_bound(pair)
    event("bound < period_bound" if bound < period_bound(pair) else "equal")


@settings(max_examples=200, deadline=None)
@given(_rationals(), st.data())
def test_mixed_recurrence_bound_is_the_common_denominator_order(case, data):
    """A rational tail with one or two periodic ones: recurrence_bound is
    the degree of lcm(L, t^pre (t^per - 1)), never above period_bound; a
    finite tail leaves it None."""
    field, o, num, den = case
    code = st.integers(0, field.q - 1)
    periodic = [data.draw(st.tuples(st.lists(code, max_size=4),
                                    st.lists(code, min_size=1, max_size=5)), label="pre|per")
                for _ in range(data.draw(st.integers(1, 2), label="periodic tails"))]
    series = [expand_rational(Poly(field, num), Poly(field, den))] + [
        LaurentSeries(field, Poly.zero(field), PeriodicSource(pre, per))
        for pre, per in periodic]
    order = data.draw(st.permutations(range(len(series))), label="order")
    series = tuple(series[k] for k in order)
    bound = recurrence_bound(series)
    assert bound == common_denominator_order(
        o, [(num, den)], [(len(pre), len(per)) for pre, per in periodic])
    assert bound <= period_bound(series)
    event("bound < period_bound" if bound < period_bound(series) else "equal")
    finite = LaurentSeries.from_frac_coeffs(field, [1, 0, 1], tail="finite")
    assert recurrence_bound(series + (finite,)) is None


@settings(max_examples=150, deadline=None)
@given(_rationals(), st.data())
def test_no_left_kernel_condition_past_the_recurrence_order(case, data):
    """In oracle arithmetic alone: with D the common denominator order of
    a rational tail and, for d = 2, a periodic one, b . M[i, D] = 0 exactly
    when b . M[i, W] = 0, for every W in D..D + 2i, b drawn from the left
    kernel of M[i, D] or at random."""
    field, o, num, den = case
    code = st.integers(0, field.q - 1)
    i = data.draw(st.integers(1, 6), label="i")
    periods = []
    if data.draw(st.booleans(), label="d = 2"):
        periods.append(data.draw(st.tuples(st.lists(code, max_size=3),
                                           st.lists(code, min_size=1, max_size=4)),
                                 label="pre|per"))
        heights = (data.draw(st.integers(0, i), label="rows of block 1"),)
        heights += (i - heights[0],)
    else:
        heights = (i,)
    D = common_denominator_order(o, [(num, den)], [(len(a), len(p)) for a, p in periods])
    count = i + D + 2 * i
    tails = [rational_expansion(o, num, den, count)[1]] + [
        (list(pre) + list(per) * count)[:count] for pre, per in periods]

    def annihilates(b, width):
        rows = stacked_matrix(lambda s, n: tails[s][n - 1], lambda _: heights, i, width)
        return not any(reduce(o.add, (o.mul(x, row[c]) for x, row in zip(b, rows)), 0)
                       for c in range(width))

    rows = stacked_matrix(lambda s, n: tails[s][n - 1], lambda _: heights, i, D)
    basis = left_kernel_basis(o, rows, i)
    b = [data.draw(code, label="b entry") for _ in range(i)]
    if basis and data.draw(st.booleans(), label="b from the kernel"):
        b = [0] * i
        for v in basis:
            c = data.draw(code, label="kernel coefficient")
            b = [o.add(x, o.mul(c, y)) for x, y in zip(b, v)]
    at_d = annihilates(b, D)
    assert all(annihilates(b, w) == at_d for w in range(D, D + 2 * i + 1))
    event("b annihilates" if at_d else "b does not annihilate")


def test_one_over_t_digits_after_the_period():
    """1/t has preperiod 1 and period 1; digits read after the period is
    known are still 1, 0, 0, ... (index 1 lies before a + p)."""
    f = Field.of_order(2)
    s = expand_rational(Poly(f, [1]), Poly(f, [0, 1]))
    assert s.frac.period_info() == (1, 1)
    assert s.frac.coefficient(1) == 1
    assert s.frac_coeffs(5) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("den, info", [([1] + [0] * 39 + [1], (0, 40)),
                                       ([0] * 40 + [1], (40, 1))])
def test_short_period_of_a_high_degree_denominator(den, info):
    """A full search over 2^40 states is past the cap, but 1/(t^40 + 1)
    (period 40) and 1/t^40 (a finite tail) are found as the states
    oracle finds them."""
    f = Field.of_order(2)
    s = expand_rational(Poly(f, [1]), Poly(f, den))
    assert s.frac.period_info() == info
    assert rational_period_states(_oracle_of(f), [1], den, 0)[0] == info


def test_period_under_the_cap_past_a_full_search():
    """Two distinct primitive degree-16 factors over F_2: the full search
    at degree 32 is past the cap, and the period, the lcm 2^16 - 1 of the
    factors' orders, is still found."""
    f = Field.of_order(2)
    den = Poly(f, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]) * Poly(
        f, [1] + [0] * 10 + [1, 0, 1, 1, 0, 1])
    assert expand_rational(Poly(f, [1]), den).frac.period_info() == (0, 2 ** 16 - 1)


def test_expand_rational_rejects_zero_denominator():
    f = Field.of_order(2)
    with pytest.raises(ZeroDivisionError):
        expand_rational(Poly(f, [1]), Poly.zero(f))


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_finite_source_guarantee_and_refusal():
    f = Field.of_order(2)
    s = LaurentSeries(f, Poly.zero(f), FiniteSource([1, 0, 1]))
    assert s.guarantee == 3
    assert s.frac_coeffs(3) == [1, 0, 1]
    with pytest.raises(InsufficientPrecisionError):
        s.frac_coeffs(4)


def test_periodic_source_coefficients():
    src = PeriodicSource([1], [0, 2])
    assert [src.coefficient(i) for i in range(1, 8)] == [1, 0, 2, 0, 2, 0, 2]
    assert src.period_info() == (1, 2)
    assert src.guarantee is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=5),
       st.lists(st.integers(0, 3), min_size=1, max_size=5), st.data())
def test_periodic_digits_are_the_coefficients(pre, per, data):
    """digits(start, stop) by slices is [coefficient(i) for i in
    start..stop], for starts inside pre and past it and for empty ranges."""
    src = PeriodicSource(pre, per)
    start = data.draw(st.integers(1, len(pre) + 2 * len(per) + 2), label="start")
    stop = data.draw(st.integers(start - 2, start + 3 * len(per) + 5), label="stop")
    assert src.digits(start, stop) == [src.coefficient(i) for i in range(start, stop + 1)]
    event("empty" if stop < start else "start inside pre" if start <= len(pre)
          else "start past pre")


def test_periodic_digits_below_index_one():
    """An index below 1 raises as coefficient() does; an empty range does not."""
    src = PeriodicSource([1], [0, 2])
    for start, stop in [(0, 0), (0, 5), (-2, 1)]:
        with pytest.raises(ValueError):
            src.digits(start, stop)
    assert src.digits(0, -1) == [] and src.digits(-3, -5) == []


@pytest.mark.parametrize("text", ["frac=[5,1,0,1]", "frac=finite:[1,2]",
                                  "frac=periodic:[1]|[0,3]", "frac=periodic:[-1]|[0]",
                                  "frac=rational:[1]/[0,2]", "poly=[4]; frac=[1]"])
def test_codes_outside_the_field_are_rejected(text):
    with pytest.raises(ElementCodeError) as exc:
        parse_series(text, Field(2))
    assert isinstance(exc.value, FfbaError)


def test_sources_check_codes_when_a_series_is_built():
    f = Field.of_order(3)
    for src in (FiniteSource([0, 3]), PeriodicSource([], [1, 5])):
        with pytest.raises(ElementCodeError):
            LaurentSeries(f, Poly.zero(f), src)
    with pytest.raises(ElementCodeError):
        LaurentSeries.from_frac_coeffs(f, [1, 2, 9], tail="zero")


def test_rule_codes_are_checked_before_elimination():
    """A rule's codes are only known when pulled; the echelon checks them
    as it caches tails, instead of eliminating over codes outside F_q."""
    f = Field.of_order(2)
    th = LaurentSeries(f, Poly.zero(f), RuleSource("bad", lambda i: 2 * (i == 3)))
    with pytest.raises(ElementCodeError):
        indices_sequence(th, ell=1)


def test_every_tail_read_checks_a_rules_codes():
    """Each reader of tail digits goes through the one range-checked
    reader, so a rule over F_2 that returns the code 2 is refused with
    ElementCodeError, never returned, used as a table index or packed."""
    f = Field.of_order(2)
    register_rule("code-two", lambda i: 2)
    bad = LaurentSeries(f, Poly.zero(f), rule_source("code-two"))
    good = parse_series("frac=periodic:[1]|[0]", f)
    n = Poly(f, [1, 1])
    calls = {
        "frac_abs": lambda: frac_abs(bad, 4),
        "poly_times_series_frac": lambda: poly_times_series_frac(n, bad, 3),
        "coefficient": lambda: bad.coefficient(2),
        "frac_coeffs": lambda: bad.frac_coeffs(3),
        "delta_entry": lambda: delta_entry(bad, None, 1, 1, 2),
        "stacked_rows": lambda: HankelView.of(bad, None, 2, 2).stacked_rows(),
        "left_null_vector": lambda: left_null_vector(bad, None, 2, 2),
        "matrix_condition_check theta": lambda: matrix_condition_check(bad, good, n=n),
        "matrix_condition_check gamma": lambda: matrix_condition_check(good, bad, n=n),
        "find_witness_small theta": lambda: find_witness_small(bad, good),
        "find_witness_small gamma": lambda: find_witness_small(good, bad),
    }
    wrong = {}
    for name, call in calls.items():
        try:
            wrong[name] = f"returned {call()!r}"
        except ElementCodeError:
            continue
        except Exception as exc:  # the assertion names the reader
            wrong[name] = f"{type(exc).__name__}: {exc}"
    assert wrong == {}


@pytest.mark.parametrize("value", [True, 1.0, None])
def test_a_rules_non_int_code_is_refused(value):
    """A rule's code must be an int: a bool (equal to 1 or not), a float or
    None raises ElementCodeError from frac_coeffs, never reads as a code
    and never escapes as a bare TypeError."""
    f = Field.of_order(2)
    register_rule(f"gives-{value!r}", lambda i: value if i == 2 else 0)
    bad = LaurentSeries(f, Poly.zero(f), rule_source(f"gives-{value!r}"))
    assert bad.frac_coeffs(1) == [0]
    with pytest.raises(ElementCodeError, match=f"^{value!r} is not"):
        bad.frac_coeffs(3)


def test_rule_source_liminf_positions():
    f = Field.of_order(2)
    s = LaurentSeries(f, Poly.zero(f), rule_source("liminf"))
    ones = [i for i in range(1, 65) if s.coefficient(i)]
    assert ones == [2, 6, 14, 30, 62]
    assert s.frac.period_info() is None


def test_as_vector_accepts_single_and_tuple():
    f = Field.of_order(2)
    s = parse_series("frac=periodic:[1]|[0]", f)
    assert as_vector(s) == (s,)
    assert as_vector((s, s)) == (s, s)
    with pytest.raises(ValueError):
        as_vector(())


# ---------------------------------------------------------------------------
# absolute values
# ---------------------------------------------------------------------------

def test_frac_abs_first_nonzero():
    f = Field.of_order(3)
    s = parse_series("frac=periodic:[0,0,2]|[1]", f)
    assert frac_abs(s, 16) == qexp(-3)


def test_frac_abs_certified_zero_and_below_limit():
    f = Field.of_order(2)
    zero_tail = parse_series("frac=periodic:[]|[0]", f)
    assert frac_abs(zero_tail, 4) == ZERO
    finite = LaurentSeries(f, Poly.zero(f), FiniteSource([0, 0, 0]))
    assert frac_abs(finite, 3) == BelowLimit(3)
    # certified source with the first 1 beyond the scan window
    late = parse_series("frac=periodic:[0,0,0,0,0,1]|[0]", f)
    assert frac_abs(late, 2) == qexp(-6)


@settings(max_examples=200, deadline=None)
@given(_rationals(), st.integers(1, 6), st.integers(0, 8))
def test_frac_abs_scans_to_the_recurrence_order(case, search_limit, lead):
    """frac_abs scans to recurrence_bound and gives what a scan to
    preperiod + period (oracle digits and period) gives, for the rational
    tail and for the same tail as pre|per behind `lead` zeros; first
    nonzero digits past search_limit occur."""
    field, o, num, den = case
    (a, p), _ = rational_period_states(o, num, den, 0)
    digits = rational_period_states(o, num, den, a + p)[1]
    first = next((k for k, c in enumerate(digits, 1) if c), None)
    want = ZERO if first is None else qexp(-first)
    assert frac_abs(expand_rational(Poly(field, num), Poly(field, den)), search_limit) == want
    periodic = LaurentSeries(field, Poly.zero(field),
                             PeriodicSource([0] * lead + digits[:a], digits[a:]))
    assert frac_abs(periodic, search_limit) == (ZERO if first is None else qexp(-first - lead))
    event("zero" if first is None else "first nonzero past search_limit"
          if first + lead > search_limit else "within search_limit")


def test_frac_abs_needs_no_period_search():
    """1/(t^45 + t^4 + t^3 + t + 1) has a period past the search cap;
    frac_abs still finds its first nonzero digit, at the recurrence order."""
    f = Field.of_order(2)
    th = expand_rational(Poly(f, [1]), Poly(f, [1, 1, 0, 1, 1] + [0] * 40 + [1]))
    assert frac_abs(th, 8) == qexp(-45)


def test_abs_qval_includes_poly_part():
    f = Field.of_order(2)
    s = LaurentSeries(f, Poly(f, [0, 0, 1]), PeriodicSource([], [0]))
    assert s.abs_qval() == qexp(2)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 9, 17])       # XOR, translate and entry-wise steps
def test_poly_times_series_frac_matches_convolution(q):
    field = Field.of_order(q)
    o = _oracle_of(field)
    rng = random.Random(q * 733)
    for _ in range(60):
        n = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
        tail = [rng.randrange(q) for _ in range(14)]
        s = LaurentSeries(field, Poly.zero(field),
                          PeriodicSource(tail, [0]))
        got = poly_times_series_frac(n, s, 10)
        want = []
        padded = tail + [0] * 6
        for i in range(1, 11):
            acc = 0
            for k, c in enumerate(n.coeffs):
                if c:
                    acc = o.add(acc, o.mul(c, padded[i + k - 1]))
            want.append(acc)
        assert got == want


def test_poly_times_series_frac_zero_poly():
    f = Field.of_order(2)
    s = parse_series("frac=periodic:[1,1]|[1]", f)
    assert poly_times_series_frac(Poly.zero(f), s, 5) == [0, 0, 0, 0, 0]
    assert poly_times_series_frac(Poly(f, [1]), s, 0) == []


# ---------------------------------------------------------------------------
# text / json round-trips
# ---------------------------------------------------------------------------

ROUNDTRIP_TEXTS = [
    "q=2; frac=[1,0,1]",
    "q=2; frac=finite:[1,0,1]",
    "q=3; poly=[1,2]; frac=periodic:1,0|2",
    "q=2; frac=rational:[1]/[1,0,1]",
    "q=2; frac=rule:liminf",
    "q=4; frac=periodic:[1,2,3]|[0]",
]


@pytest.mark.parametrize("text", ROUNDTRIP_TEXTS)
def test_roundtrips(text):
    s = parse_series(text)
    assert series_roundtrip_check(s)
    again = parse_series(series_to_text(s))
    n = s.guarantee if s.guarantee is not None else 12
    assert again.frac_coeffs(n) == s.frac_coeffs(n)
    assert again.poly_part == s.poly_part


def test_parse_series_field_mismatch():
    f = Field.of_order(2)
    with pytest.raises(ValueError):
        parse_series("q=3; frac=[1]", f)
    with pytest.raises(ValueError):
        parse_series("poly=[1]", f)           # no frac component
    with pytest.raises(ValueError):
        parse_series("frac=[1]")              # no q and no field


def test_rational_source_equality_reduces():
    f = Field.of_order(2)
    a = RationalSource(Poly(f, [1]), Poly(f, [1, 1]))
    b = RationalSource(Poly(f, [1, 1]), Poly(f, [1, 0, 1]))  # same after gcd
    sa = LaurentSeries(f, Poly.zero(f), a)
    sb = LaurentSeries(f, Poly.zero(f), b)
    assert sa.frac_coeffs(16) == sb.frac_coeffs(16)


def test_series_from_json_rejects_wrong_q():
    f = Field.of_order(2)
    s = parse_series("frac=[1]", f)
    obj = s.to_json()
    obj["q"] = 3
    with pytest.raises(ValueError):
        series_from_json(obj, f)


_FRAC = {"kind": "finite", "coeffs": [1]}


@pytest.mark.parametrize("obj", [
    {"q": 2.5, "frac": _FRAC},
    {"q": "2", "frac": _FRAC},
    {"q": 2, "frac": _FRAC, "extra": 1},
    {"frac": _FRAC},
    {"q": 2},
    {"q": 2, "frac": {"kind": "finite"}},
    {"q": 2, "frac": {"kind": "finite", "coeffs": 5}},
    {"q": 2, "frac": {"kind": "periodic", "pre": []}},
    {"q": 2, "frac": {"kind": "rational", "num": [1]}},
    {"q": 2, "frac": {"kind": "rule"}},
    {"q": 2, "poly": 5, "frac": _FRAC},
], ids=["float q", "string q", "unknown key", "no q", "no frac", "no coeffs",
        "int coeffs", "no per", "no den", "no name", "int poly"])
def test_series_json_that_would_be_misread_is_refused(obj):
    """series_from_json reads a document as written or raises ValueError:
    a q that is not an int, a key it does not know, a missing member and
    a member that is not a code list are neither read as something else
    nor raised as KeyError or TypeError."""
    with pytest.raises(ValueError):
        series_from_json(obj)
