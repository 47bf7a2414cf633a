"""Row-space engine and dense helpers against brute-force references."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ffba import Field
from ffba.linalg import (RankEngine, least_solvable_columns, left_null_lexmin,
                         nullspace, rank_dense, rref, solve)

from oracles import (OracleField, dense_rank, dense_solvable,
                     left_annihilators, left_null_lexmin_rref)

FIELDS = [Field(2), Field(3), Field(2, 2), Field(3, 2)]


def _rand_rows(rng, f, nrows, ncols):
    return [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_rank_matches_oracle(f):
    rng = random.Random(101 + f.q)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    for _ in range(60):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = _rand_rows(rng, f, nrows, ncols)
        assert rank_dense(f, rows) == dense_rank(of, rows)


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
    for _ in range(40):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = _rand_rows(rng, f, nrows, ncols)
        basis = nullspace(f, rows, ncols)
        assert len(basis) == ncols - rank_dense(f, rows)
        for vec in basis:
            assert any(vec)
            for row in rows:
                acc = 0
                for a, v in zip(row, vec):
                    acc = f.add(acc, f.mul(a, v))
                assert acc == 0
        # basis vectors are independent
        assert rank_dense(f, basis) == len(basis)


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
    for _ in range(20):
        ncols = rng.randrange(1, 6)
        eng = RankEngine(f)
        kept: list[list[int]] = []
        for _ in range(8):
            row = [rng.randrange(f.q) for _ in range(ncols)]
            before = eng.rank
            grew = eng.add(row)
            kept.append(row)
            assert eng.rank == rank_dense(f, kept)
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


@settings(max_examples=100, deadline=None)
@given(_matrices(max_rows=8, max_cols=8), st.data())
def test_least_solvable_columns_matches_column_scan(case, data):
    f, rows = case
    of = _oracle(f)
    width = len(rows[0]) if rows else 0
    rhs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=len(rows),
                             max_size=len(rows)))
    got = least_solvable_columns(f, rows, rhs, width)
    for k in range(len(rows) + 1):
        want = next((c for c in range(1, width + 1)
                     if dense_solvable(of, [r[:c] for r in rows[:k]], rhs[:k])),
                    None)
        assert got[k] == want
