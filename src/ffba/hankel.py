"""Block coefficient matrices of series vectors and their rank structure.

For a d-vector theta of series tails and a generalized weight g, the matrix
with row count i and column count j stacks d Hankel blocks: block s has
g^s(i) rows, and its entry at (row r, column c), both 1-based, is the tail
coefficient theta^s_{r-1+c}.  The stacked row order is block 1's rows, then
block 2's, and so on; sum_s g^s(i) = i, so the stacked matrix is i x j.
With d = 1 and the trivial weight this is the plain Hankel matrix of the
tail, and the i x i square matrices govern small-denominator solvability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecisionError
from .field import Field
from .linalg import RankEngine, left_null_lexmin
from .series import LaurentSeries, as_vector
from .weights import GeneralizedWeight

__all__ = ["HankelView", "delta_entry", "rank_profile", "left_null_vector",
           "square_invertibility_spectrum", "default_weight"]


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
        heights = self.block_heights()
        if not 1 <= s <= len(self.theta):
            raise ValueError("block index out of range")
        if not (1 <= r <= heights[s - 1] and 1 <= c <= self.cols):
            raise ValueError("entry outside the matrix")
        return self.theta[s - 1].frac.coefficient(r - 1 + c)

    def stacked_rows(self) -> list[list[int]]:
        self.require_precision()
        out = []
        for s, h in enumerate(self.block_heights()):
            # each row of a Hankel block is a window onto the same tail
            tail = self.theta[s].frac_coeffs(h - 1 + self.cols) if self.cols else []
            out.extend(tail[r:r + self.cols] for r in range(h))
        return out

    def column(self, c: int) -> list[int]:
        out = []
        for s, h in enumerate(self.block_heights()):
            coeff = self.theta[s].frac.coefficient
            for r in range(1, h + 1):
                out.append(coeff(r - 1 + c))
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
    return vec[s - 1].frac.coefficient(r - 1 + c)


def rank_profile(theta, weight: GeneralizedWeight | None, rows: int,
                 max_cols: int) -> list[int]:
    """Ranks of the i x j matrices for j = 1..max_cols at fixed i = rows.

    Incremental: each column is appended to an elimination basis once.
    Monotone nondecreasing, steps of at most 1, capped at rows.
    """
    view = HankelView.of(theta, weight, rows, max_cols)
    view.require_precision()
    engine = RankEngine(view.field)
    ranks = []
    for c in range(1, max_cols + 1):
        engine.add(view.column(c))
        ranks.append(engine.rank)
    return ranks


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
    """Whether the m x m stacked matrix is invertible, for m = 1..max_m.

    Needs tail coefficients through 2*max_m - 1 in each used coordinate.
    """
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    HankelView.of(vec, w, max_m, max_m).require_precision()
    out = []
    for m in range(1, max_m + 1):
        view = HankelView.of(vec, w, m, m)
        engine = RankEngine(view.field)
        for c in range(1, m + 1):
            engine.add(view.column(c))
        out.append(engine.rank == m)
    return out
