"""Seeded input generation for the benchmark, independent of the ffba package.

Everything here is plain integer arithmetic over prime fields F_p, so the
inputs the benchmark hands to the library (digit streams, primitive
denominators, expected digits and periods) never come from the code under
test.  Polynomials are coefficient lists, constant term first.
"""

from __future__ import annotations

import math
import random


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a * b mod (monic) mod, over F_p."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return poly_mod(prod, mod, p)


def poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    rem = _trim(list(a))
    n = len(mod) - 1
    while len(rem) > n:
        lead = rem[-1]
        shift = len(rem) - 1 - n
        for i, c in enumerate(mod):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        _trim(rem)
    return rem


def poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, mod, p)
        base = poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(mod: list[int], p: int) -> bool:
    """Monic mod of degree n is primitive iff t has order exactly p^n - 1
    modulo it (an element of that order forces the quotient ring to be a
    field, so irreducibility follows)."""
    n = len(mod) - 1
    if mod[0] == 0:
        return False
    order = p ** n - 1
    if poly_powmod([0, 1], order, mod, p) != [1]:
        return False
    return all(poly_powmod([0, 1], order // r, mod, p) != [1]
               for r in _prime_factors(order))


def first_primitive(p: int, n: int) -> list[int]:
    """The first primitive polynomial of degree n in a fixed enumeration
    order (lower coefficients read as a base-p number)."""
    for code in range(p ** n):
        cand = [(code // p ** i) % p for i in range(n)] + [1]
        if is_primitive(cand, p):
            return cand
    raise ValueError(f"no primitive polynomial of degree {n} over F_{p}")


def _add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + (b[i] if i < len(b) else 0)) % p for i, x in enumerate(a)])


def random_primitive(rng: random.Random, p: int, n: int) -> list[int]:
    """A uniformly random primitive polynomial of degree n, at a cost that
    does not depend on the draw: the minimal polynomial of alpha^k, where
    alpha is a root of first_primitive(p, n) and k is a random exponent
    prime to p^n - 1 (each primitive polynomial has exactly n such k)."""
    base = first_primitive(p, n)
    order = p ** n - 1
    k = rng.randrange(1, order)
    while math.gcd(k, order) != 1:
        k = rng.randrange(1, order)
    conj = poly_powmod([0, 1], k, base, p)
    poly: list[list[int]] = [[1]]      # in x, coefficients in F_p[t]/base
    for _ in range(n):
        neg = [(-c) % p for c in conj]
        nxt: list[list[int]] = [[] for _ in range(len(poly) + 1)]
        for j, coeff in enumerate(poly):
            nxt[j + 1] = _add(nxt[j + 1], coeff, p)
            nxt[j] = _add(nxt[j], poly_mulmod(coeff, neg, base, p), p)
        poly = nxt
        conj = poly_powmod(conj, p, base, p)
    if any(len(c) > 1 for c in poly):
        raise ArithmeticError("minimal polynomial has coefficients outside F_p")
    out = [c[0] if c else 0 for c in poly]
    if not is_primitive(out, p):
        raise ArithmeticError(f"minimal polynomial {out} is not primitive")
    return out


def random_poly(rng: random.Random, p: int, deg: int) -> list[int]:
    """Uniform polynomial of degree exactly deg (deg >= 0)."""
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def tail_digits(num: list[int], den: list[int], p: int, count: int) -> list[int]:
    """First count tail digits of num/den (den monic, deg num < deg den)."""
    n = len(den) - 1
    rem = poly_mod(num, den, p) + [0] * n
    rem = rem[:n]
    out = []
    for _ in range(count):
        # multiply by t: the coefficient that reaches t^n is the next digit
        digit = rem[-1] if n else 0
        rem = [0] + rem[:-1]
        if digit:
            for i in range(n):
                rem[i] = (rem[i] - digit * den[i]) % p
        out.append(digit)
    return out


def times_poly_tail(n: list[int], digits: list[int], p: int, count: int) -> list[int]:
    """First count tail digits of N * theta, from theta's tail digits:
    entry i is sum_k n_k theta_{i+k} (needs count + deg N digits)."""
    return [sum(c * digits[i + k] for k, c in enumerate(n)) % p
            for i in range(count)]
