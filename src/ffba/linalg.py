"""Exact linear algebra over F_q on int-coded vectors.

One incremental echelon basis (_Basis, with RankEngine as a small public
face) does all elimination.  Vectors are packed one byte per entry into
Python ints; a row step is one XOR over F_2 and one bytes.translate
through a precomputed table otherwise.  Entries past a data width form a
tag that row steps carry but pivots ignore, so a single pass yields the
row combinations behind each reduced vector.  On it sit the
lexicographically least left annihilator (left_null_lexmin, tagged with
the identity) and hankel.RowEchelon, whose pivots give every rank of the
rank walk and the square spectrum, and whose tags give the walk's
annihilators.  Appends never rescan earlier vectors.

The dense routines are views of one such echelon of a matrix's rows
(_echelon, a right-hand side riding as each row's tag): solve and
nullspace back-substitute from the top pivot down (_Basis.forced), and
rref reduces each stored vector against the later pivots.

Vectors are sequences of field element codes; "first nonzero position"
always means the lowest index, and lexicographic order compares positions
left to right using the int code order (0 is smallest).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .field import Field

__all__ = ["RankEngine", "rref", "solve", "nullspace", "left_null_lexmin"]


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
            else:       # sub_multiple, inlined: this loop is the hot path
                w = v * q + row
                v = int.from_bytes(w.to_bytes((w.bit_length() + 7) >> 3, "little")
                                   .translate(steps[(v >> (p << 3)) & 255]), "little")
            d = v & mask
        return -1, v

    def sub_multiple(self, v: int, row: int, c: int) -> int:
        """v - c*row, entry by entry."""
        q = self._field.q
        if q == 2:
            return v ^ row if c else v
        if self._steps is None:
            return self._slow_step(v, row, c)
        w = v * q + row
        return int.from_bytes(w.to_bytes((w.bit_length() + 7) >> 3, "little")
                              .translate(self._steps[c]), "little")

    def truncate(self, rank: int) -> None:
        """Forget all but the first `rank` stored vectors (later inserts
        never change earlier ones, and dicts keep insertion order)."""
        while self.rank > rank:
            self._pivots.popitem()
            self.rank -= 1

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

    def forced(self, p: int, x: Sequence[int]) -> int | None:
        """x_p as fixed by the stored vector with pivot p: its tag at
        position len(x) less its later entries against x's; None when p is
        free."""
        row = self._pivots.get(p)
        if row is None:
            return None
        n, f = len(x), self._field
        entries = row.to_bytes(n + 1, "little")
        return f.sub(entries[n], f.dot(entries[p + 1:n], x[p + 1:]))

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


@lru_cache(maxsize=16)
def _lane_tables(field: Field) -> tuple[list[list[bytes]], bytes]:
    """Digit lanes: per multiplier c, the byte maps x -> digit j of c*x,
    one per base-p digit j, and the map x -> x mod p that reduces lanes
    summed as plain ints."""
    p, q, mul = field.p, field.q, field._mul
    return ([[bytes([mul[c][x] // p ** j % p for x in range(q)] + [0] * (256 - q))
              for j in range(field.k)] for c in range(q)],
            bytes(x % p for x in range(256)))


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
# Dense views of one echelon
# ---------------------------------------------------------------------------

def _echelon(field: Field, rows: Sequence[Sequence[int]],
             rhs: Sequence[int] = ()) -> tuple[_Basis, int, bool]:
    """(basis, width, inconsistent): the rows in one lowest-pivot echelon,
    rhs[k] as row k's tag past the data width; inconsistent when some
    row's data reduced to zero while its tag did not."""
    width = len(rows[0]) if rows else 0
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows differ in length")
    basis, bad = _Basis(field, width), False
    for k, row in enumerate(rows):
        p, v = basis.insert(basis.pack([*row, rhs[k]] if rhs else row))
        bad |= p < 0 < v
    return basis, width, bad


def _back_substitute(basis: _Basis, x: list[int]) -> list[int]:
    """Fill x's pivot entries from the top pivot down; the free entries
    stay as given."""
    for p in sorted(basis._pivots, reverse=True):
        x[p] = basis.forced(p, x)
    return x


def rref(field: Field, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list)."""
    basis, width, _ = _echelon(field, rows)
    pivots = sorted(basis._pivots)
    red: dict[int, int] = {}
    for k in range(len(pivots) - 1, -1, -1):
        v = basis._pivots[pivots[k]]
        for later in pivots[k + 1:]:
            v = basis.sub_multiple(v, red[later], (v >> (8 * later)) & 255)
        red[pivots[k]] = v
    out = [list(red[p].to_bytes(width, "little")) for p in pivots]
    return out + [[0] * width for _ in range(len(rows) - len(out))], pivots


def solve(field: Field, rows: Sequence[Sequence[int]],
          rhs: Sequence[int]) -> list[int] | None:
    """One solution x of rows*x = rhs (free variables set to 0), or None."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    basis, width, bad = _echelon(field, rows, rhs)
    return None if bad else _back_substitute(basis, [0] * width)


def nullspace(field: Field, rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x : rows*x = 0}: one vector per free column, 1 there and
    0 at the other free columns."""
    basis, width, _ = _echelon(field, rows)
    if ncols < width:
        raise ValueError(f"ncols {ncols} is less than the row width {width}")
    return [_back_substitute(basis, [int(k == free) for k in range(ncols)])
            for free in range(ncols) if free not in basis._pivots]


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

