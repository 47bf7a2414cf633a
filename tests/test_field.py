"""Field arithmetic against an independent per-operation oracle."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from ffba import Field, elem_arith, field_new
from ffba.errors import (ElementCodeError, MissingModulusError, NonPrimeError,
                         ReducibleModulusError)
from oracles import OracleField, poly_divmod

CASES = [
    (2, 1, None),
    (3, 1, None),
    (5, 1, None),
    (2, 2, None),          # default modulus x^2 + x + 1
    (3, 2, None),
    (2, 3, None),
    (2, 2, [1, 1, 1]),
    (3, 2, [2, 2, 1]),     # x^2 + 2x + 2, irreducible over F_3
]


def _oracle_for(f: Field) -> OracleField:
    return OracleField(f.p, f.k, list(f.modulus) if f.modulus else None)


@pytest.mark.parametrize("p,k,modulus", CASES)
def test_tables_match_oracle(p, k, modulus):
    f = field_new(p, k, modulus)
    o = _oracle_for(f)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == o.add(a, b)
            assert f.sub(a, b) == o.sub(a, b)
            assert f.mul(a, b) == o.mul(a, b)
            if b != 0:
                assert f.div(a, b) == o.div(a, b)
        assert f.neg(a) == o.neg(a)
        if a != 0:
            assert f.inv(a) == o.inv(a)


_PRIME_POWERS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3),
                 49: (7, 2), 81: (3, 4), 121: (11, 2), 125: (5, 3), 169: (13, 2)}


def _has_monic_factor(p: int, modulus) -> bool:
    """Trial division of the modulus by every monic polynomial of degree
    1..k//2 over F_p, in the oracle's polynomial arithmetic."""
    o = OracleField(p)
    k = len(modulus) - 1
    return any(not poly_divmod(o, list(modulus), [*low, 1])[1]
               for deg in range(1, k // 2 + 1)
               for low in itertools.product(range(p), repeat=deg))


def _check_modulus(p: int, k: int, modulus) -> bool:
    """Field(p, k, modulus) is refused as reducible exactly when trial
    division finds a factor, and otherwise has the oracle's tables.
    Returns whether the modulus is reducible."""
    if _has_monic_factor(p, modulus):
        with pytest.raises(ReducibleModulusError, match="is reducible over"):
            Field(p, k, modulus)
        return True
    _assert_tables_match(Field(p, k, modulus), OracleField(p, k, list(modulus)))
    return False


def _assert_tables_match(f: Field, o: OracleField) -> None:
    """Whole add and mul rows, negatives, and inverses checked by the
    oracle's product (one oracle call each, not an oracle search)."""
    for a in range(f.q):
        assert [f.add(a, b) for b in range(f.q)] == [o.add(a, b) for b in range(f.q)]
        assert [f.mul(a, b) for b in range(f.q)] == [o.mul(a, b) for b in range(f.q)]
        assert f.neg(a) == o.neg(a)
        if a:
            assert o.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_tables_and_reducibility_for_every_modulus(q):
    """Every modulus of degree k over F_p (nonzero leading coefficient)."""
    p, k = _PRIME_POWERS[q]
    verdicts = [_check_modulus(p, k, (*low, lead))
                for low in itertools.product(range(p), repeat=k)
                for lead in range(1, p)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("q", [49, 81, 121, 125, 169])
def test_tables_and_reducibility_for_sampled_moduli(q):
    """Two reducible and two irreducible moduli, drawn from a seeded
    stream."""
    p, k = _PRIME_POWERS[q]
    rng = random.Random(q)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 2:
        modulus = (*(rng.randrange(p) for _ in range(k)), rng.randrange(1, p))
        if seen[_has_monic_factor(p, modulus)] < 2:
            seen[_check_modulus(p, k, modulus)] += 1


@pytest.mark.parametrize("p", [2, 7, 13, 251])
def test_prime_field_tables_match_oracle(p):
    _assert_tables_match(Field(p), OracleField(p))


def test_check_refuses_a_bool():
    """True == 1, but a bool is no element code."""
    f = Field(2)
    assert f.check(1) == 1
    for bad in (True, False, 1.0, 2, -1):
        with pytest.raises(ElementCodeError):
            f.check(bad)


def test_check_codes_names_the_first_non_code():
    """check_codes returns the codes as bytes, or raises ElementCodeError
    naming the first non-code: a bool, a float, None, or an int outside
    range(q)."""
    f = Field(3)
    assert f.check_codes([0, 2, 1]) == b"\0\2\1" and f.check_codes(()) == b""
    for codes, first in [([0, True, 5], True), ([1, 1.0], 1.0), ([2, None], None),
                         ([3, 1.5], 3), ([0, -1], -1), ([1, 256], 256), ([False], False)]:
        with pytest.raises(ElementCodeError, match=f"^{re.escape(repr(first))} is not"):
            f.check_codes(codes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_sampled(q):
    f = Field.of_order(q)
    rng = random.Random(q * 977)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_pow_matches_repeated_multiplication():
    f = Field.of_order(9)
    for a in range(1, 9):
        acc = 1
        for n in range(1, 10):
            acc = f.mul(acc, a)
            assert f.pow(a, n) == acc
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 0) == 1


def test_element_and_coords_roundtrip():
    f = field_new(3, 2)
    for code in range(9):
        assert f.element(f.coeffs_of(code)) == code


def test_elem_arith_dispatch():
    f = field_new(5)
    assert elem_arith(f, 2, 3, "add") == 0
    assert elem_arith(f, 2, 3, "sub") == 4
    assert elem_arith(f, 2, 3, "mul") == 1
    assert elem_arith(f, 1, 2, "div") == 3
    assert elem_arith(f, 2, None, "neg") == 3
    assert elem_arith(f, 2, None, "inv") == 3


def test_elem_arith_rejects_bad_input():
    f = field_new(3)
    with pytest.raises(ValueError):
        elem_arith(f, 1, 1, "xor")
    with pytest.raises(ValueError):
        elem_arith(f, 1, None, "add")
    with pytest.raises(ValueError):
        elem_arith(f, 7, 1, "add")
    with pytest.raises(ZeroDivisionError):
        elem_arith(f, 1, 0, "div")


def test_constructor_validation():
    with pytest.raises(NonPrimeError):
        field_new(6)
    with pytest.raises(NonPrimeError):
        Field.of_order(12)
    with pytest.raises(ReducibleModulusError):
        field_new(2, 2, [1, 0, 1])   # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        field_new(2, 2, [1, 1])      # wrong degree
    with pytest.raises(MissingModulusError):
        field_new(5, 2)              # no shipped default for q = 25


@pytest.mark.parametrize("q", [257, 10 ** 12 + 39, 2 ** 61 - 1])
def test_of_order_refuses_orders_past_the_limit_before_factoring(q):
    """An order past 256 is refused before any trial division, so a huge
    prime order is answered at once rather than factored."""
    with pytest.raises(ValueError, match="outside supported range"):
        Field.of_order(q)


def test_of_order_factors_prime_powers():
    f = Field.of_order(8)
    assert (f.p, f.k, f.q) == (2, 3, 8)
    g = Field.of_order(16)
    assert (g.p, g.k) == (2, 4)


def test_equality_and_hash():
    assert field_new(2, 2) == field_new(2, 2)
    assert field_new(2) != field_new(3)
    assert hash(field_new(3, 1)) == hash(Field.of_order(3))


def test_of_order_shares_one_field_per_order_and_modulus():
    """Tables are built once per (q, modulus); Field() itself builds afresh."""
    assert Field.of_order(9) is Field.of_order(9)
    assert Field.of_order(9, [1, 0, 1]) is Field.of_order(9, (1, 0, 1))
    assert Field.of_order(9, [1, 0, 1]) == Field.of_order(9)
    assert Field.of_order(7) is Field.of_order(7)
    assert Field(3, 2) is not Field(3, 2) and Field(3, 2) == Field.of_order(9)


@pytest.mark.parametrize("modulus", [[1.0, 0, 1], [1, 0, True], (1, 0.0, 1)])
def test_modulus_coefficients_must_be_ints(modulus):
    """c % p reduces a float or a bool too; both are refused, by Field()
    and by Field.of_order, instead of building float tables or reading
    True as 1."""
    for build in (lambda: Field(3, 2, modulus), lambda: Field.of_order(9, modulus)):
        with pytest.raises(ValueError, match="must be ints"):
            build()


@pytest.mark.parametrize("q, modulus, error, match", [
    (9, [1, 1, 1], ReducibleModulusError, "reducible"),
    (9, [1, 0], ValueError, "degree exactly 2"),
    (9, 3, TypeError, "not iterable"),
    (9, [[1], [0], [1]], TypeError, "unsupported operand"),
    (9, "abc", TypeError, "string formatting"),
    (12, None, NonPrimeError, "not a prime power"),
    (27, None, MissingModulusError, "no default modulus"),
    (32, None, ValueError, "extension degree 5"),
])
def test_of_order_errors_are_raised_every_time(q, modulus, error, match):
    """A malformed or unhashable modulus raises as Field() does, on every
    call: no failed build is shared."""
    for _ in range(2):
        with pytest.raises(error, match=match):
            Field.of_order(q, modulus)
