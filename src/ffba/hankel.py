"""Block coefficient matrices of series vectors and their rank structure.

For a d-vector theta of series tails and a generalized weight g, the matrix
with row count i and column count j stacks d Hankel blocks: block s has
g^s(i) rows, and its entry at (row r, column c), both 1-based, is the tail
coefficient theta^s_{r-1+c}.  The stacked row order is block 1's rows, then
block 2's, and so on; sum_s g^s(i) = i, so the stacked matrix is i x j.
With d = 1 and the trivial weight this is the plain Hankel matrix of the
tail, and the i x i square matrices govern small-denominator solvability.

Ranks come from one lowest-pivot echelon of the rows in walk order
(RowEchelon): row k is row g^s(k) of block s = assign(k), so the first i
rows are the rows of M[i, j] and growing i only appends rows.  Every
stored row has its own lowest nonzero position, so rank M[i, j] is the
number of pivots below j.  Row k carries the unit tag e_k past the data,
so each stored row's tag says which combination of rows it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .field import Field
from .linalg import _Basis, left_null_lexmin
from .series import LaurentSeries, as_vector
from .weights import GeneralizedWeight

__all__ = ["HankelView", "RowEchelon", "walk_row", "delta_entry", "rank_profile",
           "left_null_vector", "square_invertibility_spectrum", "default_weight"]


def default_weight(theta: tuple[LaurentSeries, ...],
                   weight: GeneralizedWeight | None) -> GeneralizedWeight:
    if weight is None:
        if len(theta) != 1:
            raise ValueError("a weight is required when d > 1")
        return GeneralizedWeight.one_dim()
    if weight.d != len(theta):
        raise ValueError(f"weight has d={weight.d}, series vector has d={len(theta)}")
    return weight


@dataclass(frozen=True)
class HankelView:
    """An i x j stacked block matrix over the tails of theta."""

    theta: tuple[LaurentSeries, ...]
    weight: GeneralizedWeight
    rows: int
    cols: int

    @classmethod
    def of(cls, theta, weight: GeneralizedWeight | None, rows: int, cols: int) -> "HankelView":
        vec = as_vector(theta)
        w = default_weight(vec, weight)
        if rows < 0 or cols < 0:
            raise ValueError("matrix extents must be nonnegative")
        return cls(vec, w, rows, cols)

    @property
    def field(self) -> Field:
        return self.theta[0].field

    def block_heights(self) -> tuple[int, ...]:
        return self.weight.eval(self.rows)

    def require_precision(self) -> None:
        """Every entry must be within each coordinate's guarantee."""
        if self.cols == 0:
            return
        for s, h in enumerate(self.block_heights()):
            if h > 0:
                self.theta[s].frac.require(h - 1 + self.cols)

    def entry(self, s: int, r: int, c: int) -> int:
        """Block s (1-based), row r, column c: theta^s_{r-1+c}."""
        if c > self.cols:
            raise ValueError("entry outside the matrix")
        return delta_entry(self.theta, self.weight, s, r, c, self.rows)

    def stacked_rows(self) -> list[list[int]]:
        self.require_precision()
        out = []
        for s, h in enumerate(self.block_heights()):
            # each row of a Hankel block is a window onto the same tail
            tail = self.theta[s].frac_coeffs(h - 1 + self.cols) if self.cols and h else []
            out.extend(tail[r:r + self.cols] for r in range(h))
        return out


def delta_entry(theta, weight: GeneralizedWeight | None, s: int, r: int, c: int,
                rows: int | None = None) -> int:
    """Entry of the stacked matrix: theta^s_{r-1+c}.

    rows bounds-checks r against g^s(rows) when given; otherwise any r >= 1
    is allowed (the entry value does not depend on the extents).
    """
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    if not 1 <= s <= len(vec):
        raise ValueError("block index out of range")
    if r < 1 or c < 1:
        raise ValueError("rows and columns are 1-based")
    if rows is not None and r > w.eval(rows)[s - 1]:
        raise ValueError("row outside block height")
    return vec[s - 1].coefficient(r - 1 + c)


def rank_profile(theta, weight: GeneralizedWeight | None, rows: int,
                 max_cols: int) -> list[int]:
    """Ranks of the i x j matrices for j = 1..max_cols at fixed i = rows:
    one echelon of the rows, then a running count of pivots below j.
    Monotone nondecreasing, steps of at most 1, capped at rows."""
    view = HankelView.of(theta, weight, rows, max_cols)
    view.require_precision()
    ech = RowEchelon(view.theta, view.weight, max_cols)
    for _ in range(rows):
        ech.append()
    return list(accumulate(int(j in ech.pivots) for j in range(max_cols)))


def left_null_vector(theta, weight: GeneralizedWeight | None, rows: int,
                     cols: int) -> tuple[int, ...] | None:
    """Lex-smallest nonzero b (length rows, stacked order) with b^T M = 0.

    None iff the matrix has full row rank.  cols may be 0, in which case
    every nonzero vector annihilates and the lex minimum is (0,...,0,1).
    """
    view = HankelView.of(theta, weight, rows, cols)
    b = left_null_lexmin(view.field, view.stacked_rows(), rows)
    return tuple(b) if b is not None else None


def square_invertibility_spectrum(theta, max_m: int,
                           weight: GeneralizedWeight | None = None) -> list[bool]:
    """Whether the m x m stacked matrix is invertible, for m = 1..max_m:
    one echelon, appending row m and counting its pivots below m.

    Needs tail coefficients through 2*max_m - 1 in each used coordinate.
    """
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    HankelView.of(vec, w, max_m, max_m).require_precision()
    ech = RowEchelon(vec, w, max_m)
    out, below = [], 0          # below: pivots < m among the first m rows
    for m in range(1, max_m + 1):
        below += m - 1 in ech.pivots
        p, _ = ech.append()
        below += 0 <= p < m
        out.append(below == m)
    return out


def walk_row(weight: GeneralizedWeight, k: int) -> tuple[int, int]:
    """Stacked row k >= 1 in walk order as (block s, 0-based; row r,
    1-based): row g^s(k) of block s = assign(k).  The first i rows in this
    order are exactly the rows of M[i, j]."""
    s = weight.assign(k) - 1
    return s, weight.eval(k)[s]


class RowEchelon:
    """Lowest-pivot echelon of the stacked rows in walk order, at a column
    width that can grow.

    append() adds the next row and returns its pivot (-1 when it reduces to
    zero) and its cover: how many columns its source guarantees (None when
    unbounded).  A row is cut at its cover, so pivots below the smallest
    cover are exact.  widen() re-packs every row with its tag at a larger
    width from cached tail bytes; tail codes are range-checked when cached."""

    def __init__(self, theta: tuple[LaurentSeries, ...], weight: GeneralizedWeight,
                 width: int):
        self.theta = theta
        self.weight = weight
        self.rows: list[tuple[int, int]] = []
        self.cover: int | None = None       # least cover over the rows
        self._tails = [bytearray() for _ in theta]
        self.widen(width)

    @property
    def pivots(self) -> dict[int, int]:
        return self._basis._pivots

    def widen(self, width: int) -> None:
        self.width = width
        self._basis = _Basis(self.theta[0].field, width)
        for k, (s, r) in enumerate(self.rows):
            self._basis.insert(self._packed(s, r, k))

    def full_rank_width(self, stop: int) -> int | None:
        """Least j <= stop with full row rank, one past the top pivot,
        doubling the width up to stop while some row lacks a pivot below
        stop; None when no such j exists."""
        while not (len(self.pivots) == len(self.rows) and max(self.pivots, default=-1) < stop):
            if self.width >= stop:
                return None
            self.widen(min(2 * self.width, stop))
        return max(self.pivots, default=-1) + 1

    def annihilator(self, j: int) -> bytes:
        """For j = full_rank_width(...): the tag of the row with pivot j - 1,
        which spans the left kernel of M[i, j - 1] (a line), in walk order."""
        return (self.pivots[j - 1] >> (8 * self.width)).to_bytes(len(self.rows), "little")

    def append(self) -> tuple[int, int | None]:
        s, r = walk_row(self.weight, len(self.rows) + 1)
        self.rows.append((s, r))
        g = self.theta[s].guarantee
        cover = None if g is None else g - (r - 1)
        if cover is not None and (self.cover is None or cover < self.cover):
            self.cover = cover
        return self._basis.insert(self._packed(s, r, len(self.rows) - 1))[0], cover

    def _packed(self, s: int, r: int, k: int) -> int:
        tail = self._tails[s]
        src = self.theta[s]
        need = r - 1 + self.width
        if src.guarantee is not None:
            need = min(need, src.guarantee)
        if need > len(tail):
            tail += src.frac_bytes(need, len(tail) + 1)
        return int.from_bytes(tail[r - 1:r - 1 + self.width], "little") \
            | 1 << (8 * (self.width + k))
