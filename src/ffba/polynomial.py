"""Polynomials in F_q[t] as normalized coefficient tuples.

Coefficients are field element codes, constant term first, with no trailing
zeros; the zero polynomial has an empty tuple.  The absolute value of a
nonzero polynomial is q^degree; the zero polynomial has absolute value zero
and no degree (deg reports -1 as a sentinel).
"""

from __future__ import annotations

from typing import Iterable

from .field import Field
from .qval import QVal, ZERO

__all__ = ["Poly", "poly_arith"]


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        cs = [field.check(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    # --- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg(self) -> int:
        """Degree; -1 for the zero polynomial (which has no true degree)."""
        return len(self.coeffs) - 1

    def abs_qval(self) -> QVal:
        return ZERO if self.is_zero else QVal(self.deg)

    def coefficient(self, i: int) -> int:
        """Coefficient of t^i (0 beyond the degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # --- arithmetic ----------------------------------------------------

    def _same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        add = self.field.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        neg = self.field.neg
        return Poly(self.field, (neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = add(out[i + j], mul(a, b))
        return Poly(self.field, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        inv_lead = f.inv(other.leading())
        rem = list(self.coeffs)
        db = other.deg
        quot = [0] * max(0, len(rem) - db)
        while len(rem) > db:
            lead = rem[-1]
            if lead:
                shift = len(rem) - 1 - db
                factor = f.mul(lead, inv_lead)
                quot[shift] = factor
                for i, bc in enumerate(other.coeffs):
                    rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, bc))
            rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(self.deg, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_arith(a: Poly, b: Poly, op: str) -> Poly | tuple[Poly, Poly]:
    """Apply one ring operation to polynomials over the same field.

    ``op`` is one of add/sub/mul/divmod; divmod returns (quotient, remainder).
    """
    if a.field != b.field:
        raise ValueError("polynomial operands live over different fields")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "divmod":
        return divmod(a, b)
    raise ValueError(f"unknown polynomial op {op!r}")
