"""Stacked Hankel views: entries, ranks, null vectors, spectra."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ffba import (Field, GeneralizedWeight, LaurentSeries, Poly, expand_rational,
                  parse_series, parse_weight, square_invertibility_spectrum)
from ffba.hankel import (HankelView, delta_entry, left_null_vector,
                         rank_profile)

from oracles import OracleField, dense_rank, left_annihilators, stacked_matrix


def _random_series(rng, f, depth):
    digits = ",".join(str(rng.randrange(f.q)) for _ in range(depth))
    return parse_series(f"frac=[{digits}]", f)


def _series(f, digits):
    return parse_series("frac=[%s]" % ",".join(map(str, digits)), f)


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

def test_delta_entry_reads_tail_digits():
    f = Field(3)
    th = _series(f, [1, 0, 2, 1, 0, 0, 2, 2])
    for r in range(1, 5):
        for c in range(1, 5):
            assert delta_entry(th, None, 1, r, c) == th.frac.coefficient(r - 1 + c)
    # constant along anti-diagonals
    assert delta_entry(th, None, 1, 1, 3) == delta_entry(th, None, 1, 3, 1)
    assert delta_entry(th, None, 1, 2, 2) == delta_entry(th, None, 1, 3, 1)


def test_delta_entry_validates_indices():
    f = Field(2)
    th = _series(f, [1, 0, 1, 1])
    with pytest.raises(ValueError):
        delta_entry(th, None, 2, 1, 1)      # only one block
    with pytest.raises(ValueError):
        delta_entry(th, None, 1, 0, 1)
    with pytest.raises(ValueError):
        delta_entry(th, None, 1, 1, 0)
    # bounds-checked form: block height g(2) = 2 for d = 1
    with pytest.raises(ValueError):
        delta_entry(th, None, 1, 3, 1, rows=2)
    assert delta_entry(th, None, 1, 2, 1, rows=2) == 0


def test_stacked_view_interleaves_blocks():
    f = Field(2)
    a = _series(f, [1, 0, 1, 1, 0, 1])
    b = _series(f, [0, 1, 1, 0, 1, 1])
    w = GeneralizedWeight.equal(2)
    view = HankelView.of((a, b), w, rows=4, cols=2)
    assert view.block_heights() == (2, 2)
    rows = view.stacked_rows()
    assert len(rows) == 4
    # block 1 rows come first, then block 2 rows
    assert rows[0] == [a.frac.coefficient(1), a.frac.coefficient(2)]
    assert rows[1] == [a.frac.coefficient(2), a.frac.coefficient(3)]
    assert rows[2] == [b.frac.coefficient(1), b.frac.coefficient(2)]
    assert rows[3] == [b.frac.coefficient(2), b.frac.coefficient(3)]
    assert view.entry(2, 1, 2) == b.frac.coefficient(2)


def test_view_respects_unequal_weight():
    f = Field(2)
    a = _series(f, [1, 1, 0, 1, 0, 0, 1, 1])
    b = _series(f, [0, 1, 0, 0, 1, 1, 0, 1])
    w = GeneralizedWeight.from_assignment(2, (1, 1, 2))
    view = HankelView.of((a, b), w, rows=6, cols=3)
    assert view.block_heights() == (4, 2)
    assert len(view.stacked_rows()) == 6


# ---------------------------------------------------------------------------
# ranks and null vectors vs. brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_profile_matches_dense_oracle(q):
    f = Field.of_order(q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    rng = random.Random(70 + q)
    for _ in range(25):
        d = rng.choice([1, 2])
        depth = 14
        vec = tuple(_random_series(rng, f, depth) for _ in range(d))
        theta = vec[0] if d == 1 else vec
        w = GeneralizedWeight.equal(d) if d > 1 else None
        i = rng.randrange(1, 7)
        j_max = rng.randrange(1, 7)
        prof = rank_profile(theta, w, i, j_max)
        assert len(prof) == j_max
        view = HankelView.of(vec, GeneralizedWeight.equal(d), i, j_max)
        rows = view.stacked_rows()
        for j in range(1, j_max + 1):
            sub = [r[:j] for r in rows]
            assert prof[j - 1] == dense_rank(of, sub), (q, d, i, j)
        # profile is nondecreasing with unit steps
        for a, b in zip(prof, prof[1:]):
            assert b in (a, a + 1)


@pytest.mark.parametrize("q", [2, 3])
def test_left_null_vector_annihilates_and_is_lexmin(q):
    f = Field.of_order(q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    rng = random.Random(80 + q)
    seen_some = False
    for _ in range(40):
        depth = 12
        th = _random_series(rng, f, depth)
        i = rng.randrange(1, 6)
        j = rng.randrange(1, 6)
        got = left_null_vector(th, None, i, j)
        view = HankelView.of((th,), GeneralizedWeight.one_dim(), i, j)
        anns = left_annihilators(of, view.stacked_rows())
        if got is None:
            assert anns == []
        else:
            seen_some = True
            assert list(got) in anns
            assert list(got) == anns[0]
    assert seen_some


def test_left_null_vector_zero_theta():
    f = Field(2)
    th = _series(f, [0, 0, 0, 0])
    v = left_null_vector(th, None, 2, 2)
    assert v is not None and any(v)


# ---------------------------------------------------------------------------
# square spectra
# ---------------------------------------------------------------------------

def test_spectrum_of_quadratic_theta():
    f = Field(2)
    th = expand_rational(Poly(f, [0, 1]), Poly(f, [1, 0, 1]))
    # t/(t^2+1): tail 1,0,1,0,...
    spec = square_invertibility_spectrum(th, 6)
    # H_1 = [1], H_2 = identity; H_3 repeats row 1 in row 3, and every
    # larger square block keeps rank 2
    assert spec == [True, True, False, False, False, False]


def test_spectrum_matches_dense_rank():
    rng = random.Random(99)
    for q in (2, 3):
        f = Field.of_order(q)
        of = OracleField(f.p)
        for _ in range(15):
            th = _random_series(rng, f, 16)
            spec = square_invertibility_spectrum(th, 6)
            for m in range(1, 7):
                rows = [[th.frac.coefficient(r + c + 1) for c in range(m)]
                        for r in range(m)]
                assert spec[m - 1] == (dense_rank(of, rows) == m)


def test_spectrum_next_digit_count():
    """Given an invertible chain, exactly q-1 next odd digits extend it.

    The determinant of the next square block is linear in the newest
    odd-position digit with nonzero leading coefficient, so exactly one
    digit value kills it.
    """
    for q in (2, 3):
        f = Field.of_order(q)
        of = OracleField(f.p)

        def inv(digits, m):
            rows = [[digits[r + c] if r + c < len(digits) else 0
                     for c in range(m)] for r in range(m)]
            return dense_rank(of, rows) == m

        # all length-3 prefixes (digits theta_1..theta_3) with H_1, and
        # count which theta_3 keep H_2 invertible
        for d1 in range(q):
            for d2 in range(q):
                if not inv([d1], 1):
                    continue
                good = [d3 for d3 in range(q) if inv([d1, d2, d3], 2)]
                assert len(good) == q - 1, (q, d1, d2)


# ---------------------------------------------------------------------------
# echelon ranks against dense elimination
# ---------------------------------------------------------------------------

@st.composite
def _stacked_inputs(draw, max_rows=10):
    """theta over q in {2, 3, 4, 9} with d in {1, 2} under the trivial,
    equal or r:1/3,2/3 weight; zero-leaning digits, enough of them for a
    max_rows x max_rows matrix."""
    f = Field.of_order(draw(st.sampled_from([2, 3, 4, 9])))
    d = draw(st.sampled_from([1, 2]))
    code = st.sampled_from([0, 0] + list(range(1, f.q)))
    theta = tuple(LaurentSeries.from_frac_coeffs(
        f, draw(st.lists(code, min_size=2 * max_rows, max_size=2 * max_rows)))
        for _ in range(d))
    weight = parse_weight(draw(st.sampled_from(["equal", "r:1/3,2/3"])), 2) \
        if d == 2 else GeneralizedWeight.one_dim()
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    return of, theta, weight, lambda s, n: theta[s].frac.coefficient(n)


@settings(max_examples=80, deadline=None)
@given(_stacked_inputs(), st.integers(0, 10), st.integers(0, 10))
def test_rank_profile_matches_dense_rank(case, rows, cols):
    of, theta, weight, coeff = case
    prof = rank_profile(theta, weight, rows, cols)
    assert prof == [dense_rank(of, stacked_matrix(coeff, weight.eval, rows, j))
                    for j in range(1, cols + 1)]


@settings(max_examples=80, deadline=None)
@given(_stacked_inputs(), st.integers(0, 10))
def test_spectrum_matches_dense_rank_stacked(case, max_m):
    of, theta, weight, coeff = case
    spec = square_invertibility_spectrum(theta, max_m, weight)
    assert spec == [dense_rank(of, stacked_matrix(coeff, weight.eval, m, m)) == m
                    for m in range(1, max_m + 1)]
