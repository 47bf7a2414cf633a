"""Field arithmetic against an independent per-operation oracle."""

from __future__ import annotations

import random

import pytest

from ffba import Field, elem_arith, field_new
from ffba.errors import (MissingModulusError, NonPrimeError,
                         ReducibleModulusError)
from oracles import OracleField

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
