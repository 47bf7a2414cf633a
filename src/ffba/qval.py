"""Exact absolute values of the form q^e, tracked in the log-q domain.

Every absolute value arising from Laurent series over F_q((1/t)) is either
zero or an integer (sometimes rational) power of q.  A QVal stores only the
exponent, so comparisons and products are exact integer/Fraction work and no
floating point enters the arithmetic.  Exponents may be ints or Fractions;
the rational case appears when a real weight vector r scales degrees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union

Exponent = Union[int, Fraction]

__all__ = ["QVal", "BelowLimit", "ZERO", "qexp"]


@total_ordering
class QVal:
    """A value q^exponent, or zero (exponent None).

    Zero compares strictly below every power of q.  Multiplication adds
    exponents and absorbs zero.  The base q is deliberately not stored:
    all comparisons within one computation share the same q.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Exponent | None):
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        self.exponent = exponent

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, QVal):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other: "QVal") -> bool:
        if not isinstance(other, QVal):
            return NotImplemented
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent < other.exponent

    def __hash__(self) -> int:
        return hash(("QVal", self.exponent))

    def __mul__(self, other: "QVal") -> "QVal":
        if not isinstance(other, QVal):
            return NotImplemented
        if self.exponent is None or other.exponent is None:
            return ZERO
        return QVal(self.exponent + other.exponent)

    def scaled(self, delta: Exponent) -> "QVal":
        """Multiply by q^delta (no-op on zero)."""
        if self.exponent is None:
            return self
        return QVal(self.exponent + delta)

    def to_float(self, q: int) -> float:
        """Float value; the only place q and floating point appear."""
        if self.exponent is None:
            return 0.0
        return float(q) ** float(self.exponent)

    def to_json(self):
        if self.exponent is None:
            return {"zero": True}
        if isinstance(self.exponent, Fraction):
            return {"exp": [self.exponent.numerator, self.exponent.denominator]}
        return {"exp": self.exponent}

    @classmethod
    def from_json(cls, obj) -> "QVal":
        if obj.get("zero"):
            return ZERO
        e = obj["exp"]
        if isinstance(e, list):
            return cls(Fraction(e[0], e[1]))
        return cls(e)

    def __repr__(self) -> str:
        if self.exponent is None:
            return "QVal(zero)"
        return f"QVal(q^{self.exponent})"


ZERO = QVal(None)


qexp = QVal


class BelowLimit:
    """Outcome of an absolute-value scan that saw only zero coefficients
    but could not certify an exact zero: the true value is < q^{-limit}.
    """

    __slots__ = ("limit",)

    def __init__(self, limit: int):
        self.limit = limit

    def __eq__(self, other) -> bool:
        return isinstance(other, BelowLimit) and self.limit == other.limit

    def __hash__(self) -> int:
        return hash(("BelowLimit", self.limit))

    def __repr__(self) -> str:
        return f"BelowLimit(q^-{self.limit})"
