"""Finite fields F_q, q = p^k, with table-driven arithmetic on int codes.

Elements are plain ints in range(q).  The code of an element is its
coordinate vector in the polynomial basis, packed base p (little-endian):
code = sum(c_i * p**i) where the element is sum(c_i * x**i) mod modulus.
For prime fields the code is just the residue.  0 and 1 are always the
additive and multiplicative identities.

Raw int codes keep the linear-algebra inner loops cheap; Field carries the
operation tables.  Desk scale is q <= 16 with extension degree k <= 4,
checked exhaustively at construction.
"""

from __future__ import annotations

from functools import lru_cache
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- base-p polynomial helpers used only for table construction ----------

def _pp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _pp_divmod(prod, mod, p)[1]


def _pp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    a = _pp_trim(list(a))
    b = _pp_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        _pp_trim(rem)
    return quot, rem


def _pp_irreducible(mod: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by monic polynomials of degree <= k//2."""
    k = len(mod) - 1
    for deg in range(1, k // 2 + 1):
        for code in range(p ** deg):
            cand = [0] * deg + [1]
            c = code
            for i in range(deg):
                cand[i] = c % p
                c //= p
            if not _pp_divmod(mod, cand, p)[1]:
                return False
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
            if not _pp_irreducible(modulus, p):
                raise ReducibleModulusError(
                    f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = tuple(modulus) if modulus else None
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
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            vecs = [self.coeffs_of(c) for c in range(q)]
            self._add = [[self.element([(x + y) % p for x, y in zip(va, vb)])
                          for vb in vecs] for va in vecs]
            self._mul = [[self.element(_pp_mulmod(_pp_trim(list(va)), _pp_trim(list(vb)),
                                                  self.modulus, p))
                          for vb in vecs] for va in vecs]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

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
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ElementCodeError(f"{a!r} is not an element code of F_{self.q}")
        return a

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


def field_new(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Build the table-backed context for F_{p^k}.

    ``modulus`` (low-degree-first coefficients of a degree-k irreducible
    over F_p) is required only when k > 1 and no default is shipped.
    """
    return Field(p, k, modulus)


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
