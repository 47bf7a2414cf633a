"""Finite fields F_q, q = p^k, with table-driven arithmetic on int codes.

Elements are plain ints in range(q).  The code of an element is its
coordinate vector in the polynomial basis, packed base p (little-endian):
code = sum(c_i * p**i) where the element is sum(c_i * x**i) mod modulus.
For prime fields the code is just the residue.  0 and 1 are always the
additive and multiplicative identities.

Raw int codes keep the linear-algebra inner loops cheap; Field carries the
operation tables (q <= 256, k <= 4), built by recurrences on the base-p
digits of the codes; a modulus is irreducible exactly when the tables show
no zero divisors, which is how construction checks it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt
from typing import Sequence

from .errors import (ElementCodeError, MissingModulusError, NonPrimeError,
                     ReducibleModulusError)

__all__ = ["Field", "DEFAULT_MODULI", "field_new", "elem_arith"]

# Default irreducible moduli, coefficient lists constant-first over F_p.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over F_2
}

_MAX_Q = 256
_MAX_K = 4
_INT = frozenset([int])      # the one type of an element code: a bool is none


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """F_q with precomputed add/mul/neg/inv tables over int codes."""

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise NonPrimeError(f"characteristic {p} is not prime")
        if k < 1 or k > _MAX_K:
            raise ValueError(f"extension degree {k} outside supported range 1..{_MAX_K}")
        q = p ** k
        if q > _MAX_Q:
            raise ValueError(f"field order {q} exceeds supported maximum {_MAX_Q}")
        if k == 1:
            modulus = None
        else:
            if modulus is None:
                if q not in DEFAULT_MODULI:
                    raise MissingModulusError(
                        f"no default modulus for q={q}; pass one explicitly")
                modulus = DEFAULT_MODULI[q]
            reduced = tuple(c % p for c in modulus)
            if any(type(c) is not int for c in modulus):   # a float or bool reduces too
                raise ValueError(f"modulus coefficients must be ints, not {list(modulus)!r}")
            modulus = reduced
            if len(modulus) != k + 1 or modulus[-1] == 0:
                raise ValueError(f"modulus must have degree exactly {k}")
        self.p, self.k, self.q, self.modulus = p, k, q, modulus
        self._build_tables()

    @classmethod
    def of_order(cls, q: int, modulus: Sequence[int] | None = None) -> "Field":
        """F_q, factoring q = p^k once q is in range.  Fields are immutable
        and compare by value, so one is shared per (q, modulus) when the
        modulus is None or a list or tuple of ints; any other is passed on
        to Field(), which raises as before."""
        if not 2 <= q <= _MAX_Q:
            raise ValueError(f"field order {q} outside supported range 2..{_MAX_Q}")
        p, k, m = q, 1, q
        for d in range(2, isqrt(q) + 1):
            if q % d == 0:
                p, k = d, 0
                while m % p == 0:
                    m //= p
                    k += 1
                if m != 1:
                    raise NonPrimeError(f"{q} is not a prime power")
                break
        if modulus is None or (isinstance(modulus, (list, tuple))
                               and all(type(c) is int for c in modulus)):
            return _shared(p, k, None if modulus is None else tuple(modulus))
        return cls(p, k, modulus)

    def _build_tables(self) -> None:
        """Tables by recurrences on base-p digits, a = a0 + p*a', b = b0 + p*b':
        add[a][b] = (a0 + b0) % p + p*add[a'][b'], mul[a][b] = a*b0 + x*(a*b'),
        where x*c shifts c's digits up and trades the top digit t for
        t * (x^k mod modulus).  The modulus is irreducible exactly when the
        table has no zero divisors: no nonzero row of mul holds a second 0."""
        p, q = self.p, self.q
        hi = q // p                     # p^(k-1), the place of the top digit
        add = [list(range(q))]
        for a in range(1, q):
            add.append([p * u + (a % p + b0) % p for u in add[a // p][:hi] for b0 in range(p)])

        def times(c: int) -> list[int]:     # c*0, ..., c*(p-1) by repeated addition
            return list(accumulate([c] * (p - 1), lambda s, x: add[s][x], initial=0))
        tops = times(0 if self.k == 1 else self.element(    # t * (x^k mod modulus)
            [-c * pow(self.modulus[-1], -1, p) for c in self.modulus[:-1]]))
        xs = [add[p * (c % hi)][tops[c // hi]] for c in range(q)]     # x*c
        mul = []
        for a in range(q):
            row = times(a)
            for b in range(1, hi):      # a*(b0 + p*b) = a*b0 + x*(a*b)
                row += map(add[xs[row[b]]].__getitem__, row[:p])
            mul.append(row)
        if any(row.count(0) > 1 for row in mul[1:]):
            raise ReducibleModulusError(
                f"modulus {list(self.modulus)} is reducible over F_{p}")
        self._add, self._mul = add, mul
        self._neg = [row.index(0) for row in add]
        self._inv = [0] + [row.index(1) for row in mul[1:]]
        self._codes = bytes(range(q))

    # --- arithmetic on int codes ------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        """sum_i a_i * b_i over the field."""
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc = add[acc][mul[x][y]]
        return acc

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            n >>= 1
        return out

    # --- element coding ----------------------------------------------

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of an element code."""
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def element(self, coeffs: Sequence[int]) -> int:
        """Element code from polynomial-basis coordinates."""
        if len(coeffs) > self.k:
            raise ValueError("too many coordinates for this field")
        code = 0
        for c in reversed(list(coeffs) + [0] * (self.k - len(coeffs))):
            code = code * self.p + c % self.p
        return code

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:     # a bool is no code
            raise ElementCodeError(f"{a!r} is not an element code of F_{self.q}")
        return a

    def check_codes(self, codes: Sequence[int]) -> bytes:
        """The codes as bytes, one per code, when each is an element code;
        otherwise ElementCodeError names the first that is not."""
        try:
            raw = bytes(codes)
            if not raw.translate(None, self._codes) and _INT.issuperset(map(type, codes)):
                return raw
        except (TypeError, ValueError):
            pass
        for c in codes:
            self.check(c)
        raise AssertionError("unreachable: some code failed above")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Field(q={self.q})"
        return f"Field(q={self.q}, modulus={list(self.modulus)})"


@lru_cache(maxsize=64)
def _shared(p: int, k: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, k, modulus)


# ---------------------------------------------------------------------------
# functional entry points
# ---------------------------------------------------------------------------

_ELEM_OPS = ("add", "sub", "mul", "div", "neg", "inv")


field_new = Field


def elem_arith(ctx: Field, a: int, b: int | None, op: str) -> int:
    """Apply one field operation to element codes.

    ``op`` is one of add/sub/mul/div/neg/inv; the unary ops ignore ``b``.
    """
    if op not in _ELEM_OPS:
        raise ValueError(f"unknown field op {op!r}")
    ctx.check(a)
    if op == "neg":
        return ctx.neg(a)
    if op == "inv":
        return ctx.inv(a)
    if b is None:
        raise ValueError(f"field op {op!r} needs a second operand")
    ctx.check(b)
    return getattr(ctx, op)(a, b)
