"""Row-space engine and the dense views of its echelon against
brute-force references."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ffba import Field
from ffba.linalg import RankEngine, left_null_lexmin, nullspace, rref, solve

from oracles import (OracleField, dense_rank, dense_solvable,
                     left_annihilators, left_null_lexmin_rref)
from oracles import _rref as oracle_rref

FIELDS = [Field(2), Field(3), Field(2, 2), Field(3, 2)]


def _rand_rows(rng, f, nrows, ncols):
    return [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_solve_consistency(f):
    rng = random.Random(202 + f.q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    for _ in range(60):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = _rand_rows(rng, f, nrows, ncols)
        rhs = [rng.randrange(f.q) for _ in range(nrows)]
        x = solve(f, rows, rhs)
        if x is None:
            assert not dense_solvable(of, rows, rhs)
        else:
            assert dense_solvable(of, rows, rhs)
            for row, b in zip(rows, rhs):
                acc = 0
                for a, xi in zip(row, x):
                    acc = f.add(acc, f.mul(a, xi))
                assert acc == b


def test_solve_known_unique_system():
    f = Field(3)
    # x + 2y = 1, 2x + 2y = 2  ->  x = 1, y = 0
    assert solve(f, [[1, 2], [2, 2]], [1, 2]) == [1, 0]
    assert solve(f, [[1, 1], [2, 2]], [1, 2]) is not None
    assert solve(f, [[1, 1], [2, 2]], [1, 1]) is None


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_nullspace_annihilates_and_has_right_dimension(f):
    rng = random.Random(303 + f.q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    for _ in range(40):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = _rand_rows(rng, f, nrows, ncols)
        basis = nullspace(f, rows, ncols)
        assert len(basis) == ncols - dense_rank(of, rows)
        for vec in basis:
            assert any(vec)
            for row in rows:
                acc = 0
                for a, v in zip(row, vec):
                    acc = f.add(acc, f.mul(a, v))
                assert acc == 0
        # basis vectors are independent
        assert dense_rank(of, basis) == len(basis)


def test_rref_shape_and_pivots():
    f = Field(2)
    mat, pivots = rref(f, [[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    assert pivots == [0, 2]
    for r, p in enumerate(pivots):
        assert mat[r][p] == 1
        for r2 in range(len(mat)):
            if r2 != r:
                assert mat[r2][p] == 0


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_left_null_lexmin_is_an_annihilator(f):
    rng = random.Random(404 + f.q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    for _ in range(30):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        rows = _rand_rows(rng, f, nrows, ncols)
        got = left_null_lexmin(f, rows, nrows)
        anns = left_annihilators(of, rows)
        if got is None:
            assert anns == []
        else:
            assert got in anns
            # lexicographically least: oracle enumeration is in lex order
            assert got == anns[0]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_rank_engine_tracks_dense_rank(f):
    rng = random.Random(505 + f.q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    for _ in range(20):
        ncols = rng.randrange(1, 6)
        eng = RankEngine(f)
        kept: list[list[int]] = []
        for _ in range(8):
            row = [rng.randrange(f.q) for _ in range(ncols)]
            before = eng.rank
            grew = eng.add(row)
            kept.append(row)
            assert eng.rank == dense_rank(of, kept)
            assert grew == (eng.rank == before + 1)
            assert eng.contains(row)


def test_rank_engine_contains_rejects_outside_span():
    f = Field(2)
    eng = RankEngine(f)
    eng.add([1, 0, 1])
    eng.add([0, 1, 0])
    assert eng.contains([1, 1, 1])
    assert not eng.contains([0, 0, 1])
    assert eng.contains([0, 0, 0])


# ---------------------------------------------------------------------------
# tagged one-pass kernels against the slow routes
# ---------------------------------------------------------------------------

def _oracle(f):
    return OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)


@st.composite
def _matrices(draw, max_rows=12, max_cols=16):
    """Matrices over q in {2, 3, 4, 9} (and 17, whose entry pairs do not fit
    one byte) whose rows combine a few seed rows, so dependent rows are
    common; some columns are zeroed."""
    f = draw(st.sampled_from(FIELDS + [Field(17)]))
    of = _oracle(f)
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    code = st.integers(0, f.q - 1)
    seeds = draw(st.lists(st.lists(code, min_size=ncols, max_size=ncols),
                          min_size=1, max_size=max(1, nrows)))
    zero_cols = draw(st.sets(st.integers(0, max(0, ncols - 1)), max_size=ncols))
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for seed in seeds:
            c = draw(code)
            row = [of.add(x, of.mul(c, y)) for x, y in zip(row, seed)]
        rows.append([0 if col in zero_cols else x for col, x in enumerate(row)])
    return f, rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
@example((Field(3), []))                            # zero rows
@example((Field(2), [[], [], []]))                  # zero columns
@example((Field(3, 2), [[1, 0, 0], [0, 1, 0]]))     # full row rank
def test_left_null_lexmin_matches_rref_route(case):
    f, rows = case
    assert left_null_lexmin(f, rows, len(rows)) == \
        left_null_lexmin_rref(_oracle(f), rows, len(rows))


# ---------------------------------------------------------------------------
# dense views of the echelon against the textbook routes
# ---------------------------------------------------------------------------

@st.composite
def _systems(draw):
    """Up to 6 x 6 systems over q in {2, 3, 4, 9, 17} with a right-hand
    side that is a combination of the columns or, as often, random (so
    many are inconsistent), and a column count for nullspace at or past
    the row width."""
    f, rows = draw(_matrices(max_rows=6, max_cols=6))
    of = _oracle(f)
    width = len(rows[0]) if rows else 0
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width))
        rhs = [_dot(of, row, x) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(0, f.q - 1), min_size=len(rows),
                            max_size=len(rows)))
    return f, rows, rhs, width + draw(st.integers(0, 2))


def _dot(of, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = of.add(acc, of.mul(a, b))
    return acc


@settings(max_examples=300, deadline=None)
@given(_systems())
@example((Field(3), [], [], 0))                          # no rows
@example((Field(3), [], [], 2))                          # no rows, two unknowns
@example((Field(2), [[], [], []], [0, 1, 0], 1))         # zero width, inconsistent
@example((Field(17), [[1, 2], [2, 4]], [1, 3], 2))       # inconsistent, q*q > 256
def test_dense_views_match_the_textbook_routes(case):
    f, rows, rhs, ncols = case
    of = _oracle(f)
    red, pivots = oracle_rref(of, rows)
    assert rref(f, rows) == (red, pivots)
    assert dense_rank(of, rows) == len(pivots)
    x = solve(f, rows, rhs)
    assert (x is not None) == dense_solvable(of, rows, rhs)
    if x is not None:
        assert [_dot(of, row, x) for row in rows] == list(rhs)
        assert all(c == 0 for k, c in enumerate(x) if k not in pivots)
    want = []
    for free in (k for k in range(ncols) if k not in pivots):
        v = [int(k == free) for k in range(ncols)]
        for r, col in enumerate(pivots):
            if free < len(red[r]):
                v[col] = of.neg(red[r][free])
        want.append(v)
    assert nullspace(f, rows, ncols) == want


def test_dense_views_refuse_malformed_systems():
    """A system whose parts do not fit is refused, never answered as
    another system."""
    f = Field(3)
    with pytest.raises(ValueError):
        solve(f, [[1, 0], [0, 1]], [1])         # an equation without its rhs
    with pytest.raises(ValueError):
        solve(f, [[1, 0]], [1, 2])
    with pytest.raises(ValueError):
        solve(f, [], [1])
    with pytest.raises(ValueError):
        nullspace(f, [[1, 1, 1]], 2)            # fewer unknowns than columns
    views = [lambda rows: rref(f, rows), lambda rows: solve(f, rows, [0] * len(rows)),
             lambda rows: nullspace(f, rows, 4)]
    for view in views:
        for ragged in ([[1, 2], [1]], [[1], [1, 2, 0]], [[0, 0], [], [1, 1]]):
            with pytest.raises(ValueError):
                view(ragged)
        with pytest.raises(ValueError):
            view([[1, 3]])                      # a code outside F_3
    with pytest.raises(ValueError):
        solve(f, [[1, 0]], [3])
