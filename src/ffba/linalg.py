"""Exact linear algebra over F_q on int-coded vectors.

Two layers:

* an incremental echelon basis (RankEngine, and the tagged kernel behind
  it).  Vectors are packed one byte per entry into Python ints; a row step
  is one XOR over F_2 and one bytes.translate through a precomputed table
  otherwise.  Entries past a data width form a tag that row steps carry
  but pivots ignore, so a single pass yields the row combinations behind
  each reduced vector.  On it sit the lexicographically least left
  annihilator (left_null_lexmin, tagged with the identity) and the least
  solvable column count of every row prefix (least_solvable_columns,
  tagged with the right-hand side).  Appends never rescan earlier vectors.
* dense helpers -- RREF, solving, rank and null spaces, used where a
  particular solution or a whole null space basis is needed.

Vectors are sequences of field element codes; "first nonzero position"
always means the lowest index, and lexicographic order compares positions
left to right using the int code order (0 is smallest).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .field import Field

__all__ = ["RankEngine", "rref", "rank_dense", "solve", "nullspace",
           "left_null_lexmin", "least_solvable_columns"]


class _Basis:
    """Echelon basis over F_q of vectors packed one byte per entry (byte i =
    entry i of a Python int), one stored vector per pivot, its lowest
    nonzero data position, normalized to 1 there.  Entries from position
    `width` on form a tag: row steps carry it along, but pivots are sought
    below it only.

    A row step v - c*row is one XOR over F_2.  Otherwise each entry pair is
    packed as x*q + y into one byte and mapped by a single bytes.translate,
    which needs q*q <= 256; larger fields step entry by entry."""

    __slots__ = ("rank", "_pivots", "_mask", "_field", "_steps", "_scale")

    def __init__(self, field: Field, width: int | None = None):
        self.rank = 0
        self._pivots: dict[int, int] = {}
        self._mask = -1 if width is None else (1 << (8 * width)) - 1
        self._field = field
        self._steps, self._scale = _byte_tables(field)

    def pack(self, codes: Sequence[int]) -> int:
        raw = bytes(codes)
        if raw and max(raw) >= self._field.q:
            raise ValueError(f"entry code {max(raw)} outside range({self._field.q})")
        return int.from_bytes(raw, "little")

    def reduce(self, v: int) -> tuple[int, int]:
        """(p, v - sum of basis multiples): p is the lowest nonzero data
        position left, which has no basis vector, or -1 when none is left."""
        pivots = self._pivots
        mask = self._mask
        steps = self._steps
        q = self._field.q
        d = v & mask
        while d:
            p = ((d & -d).bit_length() - 1) >> 3
            row = pivots.get(p)
            if row is None:
                return p, v
            if q == 2:
                v ^= row
            elif steps is None:
                v = self._slow_step(v, row, (v >> (p << 3)) & 255)
            else:
                w = v * q + row
                v = int.from_bytes(w.to_bytes((w.bit_length() + 7) >> 3, "little")
                                   .translate(steps[(v >> (p << 3)) & 255]), "little")
            d = v & mask
        return -1, v

    def insert(self, v: int) -> tuple[int, int]:
        """Reduce v and store it when its data part survives.  Returns the
        pivot (-1 when the data part reduced to zero) and the reduced v."""
        p, v = self.reduce(v)
        if p >= 0:
            c = (v >> (p << 3)) & 255
            if c != 1:
                v = int.from_bytes(v.to_bytes((v.bit_length() + 7) >> 3, "little")
                                   .translate(self._scale[self._field._inv[c]]), "little")
            self._pivots[p] = v
            self.rank += 1
        return p, v

    def _slow_step(self, v: int, row: int, c: int) -> int:
        f = self._field
        n = (max(v.bit_length(), row.bit_length()) + 7) >> 3
        mc = f._mul[c]
        return int.from_bytes(bytes(
            f._add[x][f._neg[mc[y]]]
            for x, y in zip(v.to_bytes(n, "little"), row.to_bytes(n, "little"))),
            "little")


@lru_cache(maxsize=16)
def _byte_tables(field: Field) -> tuple[list[bytes] | None, list[bytes]]:
    """Per multiplier c, the byte maps x*q + y -> x - c*y (None when q*q
    exceeds a byte) and x -> c*x."""
    q = field.q
    add, neg, mul = field._add, field._neg, field._mul
    steps = None
    if q * q <= 256:
        steps = [bytes([add[x][neg[mul[c][y]]] for x in range(q) for y in range(q)]
                       + [0] * (256 - q * q)) for c in range(q)]
    return steps, [bytes(mul[c] + [0] * (256 - q)) for c in range(q)]


class RankEngine:
    """Incremental rank of the span of appended vectors over F_q."""

    def __init__(self, field: Field):
        self.field = field
        self._impl = _Basis(field)

    @property
    def rank(self) -> int:
        return self._impl.rank

    def add(self, codes: Sequence[int]) -> bool:
        """Append a vector; True iff the rank grew."""
        return self._impl.insert(self._impl.pack(codes))[0] >= 0

    def contains(self, codes: Sequence[int]) -> bool:
        """Is the vector already in the span (without inserting it)?"""
        return self._impl.reduce(self._impl.pack(codes))[0] < 0


# ---------------------------------------------------------------------------
# Dense routines
# ---------------------------------------------------------------------------

def rref(field: Field, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    f = field
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = None
        for r in range(row, len(m)):
            if m[r][col]:
                sel = r
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = f.inv(m[row][col])
        m[row] = [f.mul(inv, x) for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank_dense(field: Field, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(field, rows)[1])


def solve(field: Field, rows: Sequence[Sequence[int]],
          rhs: Sequence[int]) -> list[int] | None:
    """One solution x of rows*x = rhs (free variables set to 0), or None."""
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x


def nullspace(field: Field, rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x : rows*x = 0} via the standard free-variable method."""
    red, pivots = rref(field, rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, col in enumerate(pivots):
            if free < len(red[r]):
                v[col] = field.neg(red[r][free])
        basis.append(v)
    return basis


def left_null_lexmin(field: Field, rows: Sequence[Sequence[int]],
                     nrows: int) -> list[int] | None:
    """Lexicographically smallest nonzero b with b^T * rows = 0.

    Works on the row list of an nrows x ncols matrix (ncols may be 0).
    Rows enter a tagged basis last row first, row r tagged with the unit
    vector e_r.  The first row whose data reduces to zero, say row p, is
    the largest possible leading position of an annihilator; rows after p
    are independent, so the annihilators supported from p on form a line,
    and the reduced tag (coefficient 1 at p) is its lex-minimal point.
    Returns None when the rows are linearly independent.
    """
    width = len(rows[0]) if rows else 0
    basis = _Basis(field, width)
    for r in range(nrows - 1, -1, -1):
        p, v = basis.insert(basis.pack(rows[r]) | 1 << (8 * (width + r)))
        if p < 0:
            return list((v >> (8 * width)).to_bytes(nrows, "little"))
    return None


def least_solvable_columns(field: Field, rows: Sequence[Sequence[int]],
                           rhs: Sequence[int], width: int) -> list[int | None]:
    """For k = 0..len(rows): the least c in 1..width such that some x
    solves rows[:k], cut to their first c columns, times x = rhs[:k]; None
    when no c <= width does.

    One pass, and later rows never change earlier reduced rows.  Row k
    reduces to a combination y_k of the first k rows (y_1..y_k span them
    all) whose data has a pivot, a lowest nonzero position distinct from
    the others', or vanishes.  The combinations that vanish on the first c
    columns are spanned by the y_k without a pivot below c, so the system
    is solvable exactly when those y_k give y_k . rhs = 0.  Each row
    carries its rhs entry as a one-entry tag, which reduces to y_k . rhs.
    """
    basis = _Basis(field, width)
    least: int | None = 1
    out = [least if width else None]
    for row, b in zip(rows, rhs):
        p, v = basis.insert(basis.pack([*row, b]))
        if v >> (8 * width) and least is not None:
            least = max(least, p + 1) if p >= 0 else None
        out.append(least if least is not None and least <= width else None)
    return out
