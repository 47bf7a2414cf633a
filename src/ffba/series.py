"""Laurent series in F_q((1/t)) split as polynomial part plus proper tail.

A series theta = poly_part + sum_{i>=1} theta_i t^{-i} is stored as a Poly
and a coefficient source for the tail.  Coefficient indices are 1-based:
theta_i is the coefficient of t^{-i}.  Sources declare how much of the tail
they can produce:

* Finite(codes)     -- exactly len(codes) coefficients, then it is an error
                       to ask further (truncated data never silently pads).
* Rational(num/den) -- lazy long division, unbounded, eventually periodic
                       (period by baby-step giant-step on t^k mod den).
* Periodic(pre|per) -- explicit eventually periodic tail, unbounded.
* Rule(name)        -- coefficients from a registered function, unbounded.

Sources that know an eventual period (Rational, Periodic, Rule with a
declared period) can certify that a tail is exactly zero within the
degree of a common denominator (recurrence_bound); a Finite
source can only report BelowLimit when every scanned coefficient vanishes.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import islice
from math import isqrt, lcm
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InsufficientPrecisionError, TooLargeToEnumerateError
from .field import Field
from .linalg import _Basis
from .polynomial import Poly
from .qval import QVal, ZERO, BelowLimit

__all__ = [
    "CoefficientSource", "FiniteSource", "PeriodicSource", "RationalSource",
    "RuleSource", "LaurentSeries", "expand_rational", "frac_abs",
    "poly_times_series_frac", "parse_series", "series_to_text", "as_vector",
    "register_rule", "period_bound", "recurrence_bound",
]

_PERIOD_SEARCH_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Coefficient sources
# ---------------------------------------------------------------------------

class CoefficientSource:
    """Interface: 1-based coefficient access plus precision metadata."""

    kind = "abstract"

    def coefficient(self, i: int) -> int:
        raise NotImplementedError

    @property
    def guarantee(self) -> int | None:
        """Largest index served, or None for unbounded sources."""
        return None

    def digits(self, start: int, stop: int) -> list[int]:
        """Coefficients start..stop."""
        return [self.coefficient(i) for i in range(start, stop + 1)]

    def period_info(self) -> tuple[int, int] | None:
        """(preperiod a, period p) with theta_n = theta_{n+p} for n > a,
        or None when no eventual period is certified."""
        return None

    def listed_codes(self) -> tuple[int, ...]:
        """The codes the source holds verbatim; a series checks them
        against its field when it is built."""
        return ()

    def require(self, i: int) -> None:
        g = self.guarantee
        if g is not None and i > g:
            raise InsufficientPrecisionError(needed=i, have=g)

    def to_json(self) -> dict:
        raise NotImplementedError


class FiniteSource(CoefficientSource):
    kind = "finite"

    def __init__(self, codes: Iterable[int]):
        self.codes = tuple(codes)

    def coefficient(self, i: int) -> int:
        if i < 1:
            raise ValueError("coefficient indices are 1-based")
        if i > len(self.codes):
            raise InsufficientPrecisionError(needed=i, have=len(self.codes))
        return self.codes[i - 1]

    @property
    def guarantee(self) -> int | None:
        return len(self.codes)

    def listed_codes(self) -> tuple[int, ...]:
        return self.codes

    def to_json(self) -> dict:
        return {"kind": "finite", "coeffs": list(self.codes)}

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSource) and other.codes == self.codes

    def __hash__(self) -> int:
        return hash(("finite", self.codes))


class PeriodicSource(CoefficientSource):
    kind = "periodic"

    def __init__(self, pre: Iterable[int], per: Iterable[int]):
        self.pre = tuple(pre)
        self.per = tuple(per)
        if not self.per:
            raise ValueError("periodic source needs a nonempty period block")

    def coefficient(self, i: int) -> int:
        if i < 1:
            raise ValueError("coefficient indices are 1-based")
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.per[(i - 1 - len(self.pre)) % len(self.per)]

    def digits(self, start: int, stop: int) -> list[int]:
        """Coefficients start..stop: a slice of pre, then of repeated periods."""
        if start < 1 and stop >= start:
            raise ValueError("coefficient indices are 1-based")
        a, p = len(self.pre), len(self.per)
        i = max(start, a + 1)
        o, n = (i - a - 1) % p, max(stop - i + 1, 0)
        return list(self.pre[start - 1:max(stop, 0)] + (self.per * ((o + n) // p + 1))[o:o + n])

    def period_info(self) -> tuple[int, int]:
        return (len(self.pre), len(self.per))

    def listed_codes(self) -> tuple[int, ...]:
        return self.pre + self.per

    def to_json(self) -> dict:
        return {"kind": "periodic", "pre": list(self.pre), "per": list(self.per)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicSource) and other.pre == self.pre
                and other.per == self.per)

    def __hash__(self) -> int:
        return hash(("periodic", self.pre, self.per))


class RationalSource(CoefficientSource):
    """Tail of num/den, |num| < |den|, by lazy long division.

    The remainder r (deg den codes, constant first) steps to t*r mod den,
    and the quotient digit is r's top code over den's leading coefficient.
    Digits come from one cache that the division extends on demand, so a
    range's digits never depend on which calls came before.

    period_info searches for the period only when asked.  With t^e the power
    of t dividing den, r_k = t^k r_0 mod den is on the cycle exactly when
    t^e divides it, so the preperiod a is the least such k <= e.  The period
    is the least p >= 1 with t^p r_a = r_a, and p < q^(deg den - e):
    baby-step giant-step (Shanks) with m = isqrt(q^(deg den - e)) + 1, giant
    steps summing packed rows, finds every p below m^2.  When m * deg den is
    over the cap, m drops to isqrt(cap) + 1, so a period up to the cap is
    still found and a longer one raises TooLargeToEnumerateError.
    """

    kind = "rational"

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ValueError("rational source with zero denominator")
        self.num = num
        self.den = den
        f = den.field
        top = f.inv(den.leading())
        # the digit of a remainder with top code x, and for digit c the
        # table rows that subtract c * den below t^deg den
        self._digit = [f.mul(x, top) for x in range(f.q)]
        self._sub = [[f._add[f.neg(f.mul(c, b))] for b in den.coeffs[:-1]]
                     for c in range(f.q)]
        r0 = (num % den).coeffs
        self._r0 = r0 + (0,) * (den.deg - len(r0))
        self._division = self._run(self._r0)
        self._coeffs: list[int] = []
        self._period: tuple[int, int] | None = None

    def _run(self, r: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Long division from remainder r: (digit, next remainder) forever;
        the generator holds the tables, not self, so it makes no cycle."""
        return _long_division(self._digit, self._sub, r)

    def coefficient(self, i: int) -> int:
        return self.digits(i, i)[0]

    def digits(self, start: int, stop: int) -> list[int]:
        """Digits start..stop, from the cache that long division extends
        up to stop."""
        if start < 1:
            raise ValueError("coefficient indices are 1-based")
        self._coeffs += [c for c, _ in islice(self._division,
                                              max(stop - len(self._coeffs), 0))]
        return self._coeffs[start - 1:max(stop, 0)]

    @cached_property
    def reduced_den(self) -> Poly:
        """den over its gcd with num: the least denominator of the tail."""
        return self.den // _gcd(self.num % self.den, self.den)

    def period_info(self) -> tuple[int, int]:
        if self._period is not None:
            return self._period
        deg, cap = self.den.deg, _PERIOD_SEARCH_CAP
        e = next(k for k, c in enumerate(self.den.coeffs) if c)
        m = isqrt(self.den.field.q ** (deg - e)) + 1
        m = m if m * deg <= cap else min(m, isqrt(cap) + 1)
        rems = [self._r0, *(r for _, r in islice(self._run(self._r0), e))]
        a = next(k for k, r in enumerate(rems) if not any(r[:e]))
        start, baby = rems[a], {bytes(rems[a]): 0}
        for j, (_, r) in enumerate(islice(self._run(start), m - 1), 1):
            if r == start:
                self._period = (a, j)
                return self._period
            baby[bytes(r)] = j
        # deg den >= 1 here; g = t^m mod den, and y -> y*g mod den is
        # y_k times row k = t^k g mod den, summed: one packed row step each
        g = next(islice(self._run((1,) + (0,) * (deg - 1)), m - 1, None))[1]
        ops, neg = _Basis(self.den.field), self.den.field._neg
        rows = [ops.pack(r) for r in (g, *(r for _, r in islice(self._run(g), deg - 1)))]
        y = bytes(start)
        for i in range(1, m + 1):
            v = 0
            for c, row in zip(y, rows):
                v = ops.sub_multiple(v, row, neg[c]) if c else v
            y = v.to_bytes(deg, "little")
            if y in baby:
                self._period = (a, i * m - baby[y])
                return self._period
        raise TooLargeToEnumerateError(f"no period up to {m * m}; a full search is past {cap}")

    def to_json(self) -> dict:
        return {"kind": "rational", "num": list(self.num.coeffs),
                "den": list(self.den.coeffs)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalSource) and other.num == self.num
                and other.den == self.den)

    def __hash__(self) -> int:
        return hash(("rational", self.num, self.den))


def _long_division(digit: list[int], sub: list[list[list[int]]], r: tuple[int, ...]
                   ) -> Iterator[tuple[int, tuple[int, ...]]]:
    while True:
        c = digit[r[-1]] if r else 0
        r = tuple(map(getitem, sub[c], (0, *r))) if c else (0, *r)[:-1]
        yield c, r


class RuleSource(CoefficientSource):
    kind = "rule"

    def __init__(self, name: str, fn: Callable[[int], int],
                 period: tuple[int, int] | None = None):
        self.name = name
        self.fn = fn
        self._period = period

    def coefficient(self, i: int) -> int:
        if i < 1:
            raise ValueError("coefficient indices are 1-based")
        return self.fn(i)

    def period_info(self) -> tuple[int, int] | None:
        return self._period

    def to_json(self) -> dict:
        return {"kind": "rule", "name": self.name}

    def __eq__(self, other) -> bool:
        return isinstance(other, RuleSource) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("rule", self.name))


# --- rule registry ---------------------------------------------------------

def _liminf_rule(i: int) -> int:
    # 1 exactly at indices 2, 6, 14, 30, ...: i + 2 a power of two, i >= 2.
    n = i + 2
    return 1 if i >= 2 and n & (n - 1) == 0 else 0


_RULES: dict[str, tuple[Callable[[int], int], tuple[int, int] | None]] = {
    "liminf": (_liminf_rule, None),
}


def register_rule(name: str, fn: Callable[[int], int],
                  period: tuple[int, int] | None = None) -> None:
    _RULES[name] = (fn, period)


def rule_source(name: str) -> RuleSource:
    if name not in _RULES:
        raise ValueError(f"unknown rule source {name!r}")
    fn, period = _RULES[name]
    return RuleSource(name, fn, period)


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------

class LaurentSeries:
    __slots__ = ("field", "poly_part", "frac")

    def __init__(self, field: Field, poly_part: Poly, frac: CoefficientSource):
        if poly_part.field != field:
            raise ValueError("poly part over a different field")
        field.check_codes(frac.listed_codes())
        self.field = field
        self.poly_part = poly_part
        self.frac = frac

    # --- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "LaurentSeries":
        return cls(field, Poly.zero(field), PeriodicSource((), (0,)))

    @classmethod
    def from_frac_coeffs(cls, field: Field, codes: Sequence[int],
                         tail: str = "finite") -> "LaurentSeries":
        """Series with zero polynomial part and the given tail digits.

        tail="finite" keeps the truncation honest (errors past the data);
        tail="zero" declares the series exactly equal to the finite sum.
        """
        if tail == "finite":
            src: CoefficientSource = FiniteSource(codes)
        elif tail == "zero":
            src = PeriodicSource(codes, (0,))
        else:
            raise ValueError("tail must be 'finite' or 'zero'")
        return cls(field, Poly.zero(field), src)

    # --- coefficient access ---------------------------------------------

    @property
    def guarantee(self) -> int | None:
        return self.frac.guarantee

    def coefficient(self, i: int) -> int:
        """Tail coefficient theta_i (of t^{-i}), i >= 1."""
        return self.frac_bytes(i, i)[0]

    def frac_coeffs(self, count: int) -> list[int]:
        return list(self.frac_bytes(count))

    def frac_bytes(self, stop: int, start: int = 1) -> bytes:
        """Tail codes start..stop as bytes, the one reader of tail codes.
        Listed codes were checked when the series was built; a rule's codes
        are checked here: a non-int (a bool is none) or a code outside
        range(q) raises ElementCodeError."""
        return self.field.check_codes(self.frac.digits(start, stop))

    def abs_qval(self, search_limit: int = 64):
        """|theta| = q^{deg theta}; falls back to the tail scan when the
        polynomial part vanishes."""
        if not self.poly_part.is_zero:
            return QVal(self.poly_part.deg)
        return frac_abs(self, search_limit)

    # --- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"q": self.field.q}
        if self.field.k > 1:
            obj["modulus"] = list(self.field.modulus)
        if not self.poly_part.is_zero:
            obj["poly"] = list(self.poly_part.coeffs)
        obj["frac"] = self.frac.to_json()
        return obj

    def to_text(self) -> str:
        return series_to_text(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentSeries) and other.field == self.field
                and other.poly_part == self.poly_part and other.frac == self.frac)

    def __repr__(self) -> str:
        return f"LaurentSeries({self.to_text()})"


def as_vector(theta) -> tuple[LaurentSeries, ...]:
    """Normalize a series or a sequence of series to a tuple (d >= 1)."""
    if isinstance(theta, LaurentSeries):
        return (theta,)
    vec = tuple(theta)
    if not vec or not all(isinstance(s, LaurentSeries) for s in vec):
        raise ValueError("expected a LaurentSeries or a nonempty sequence of them")
    if any(s.field != vec[0].field for s in vec):
        raise ValueError("series vector mixes fields")
    return vec


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def expand_rational(num: Poly, den: Poly) -> LaurentSeries:
    """num/den as polynomial part plus an unbounded rational tail."""
    if den.is_zero:
        raise ZeroDivisionError("expansion of division by zero")
    return LaurentSeries(num.field, num // den, RationalSource(num, den))


def frac_abs(theta: LaurentSeries, search_limit: int):
    """|<theta>| as a QVal, scanning tail coefficients up to search_limit.

    Returns q^{-i0} for the first nonzero index i0, exact zero when an
    eventually periodic source certifies it, and BelowLimit(search_limit)
    when the scan saw only zeros but the source cannot certify.  Sources
    with a certified period report the exact value even when the first
    nonzero index lies beyond search_limit.
    """
    if search_limit < 1:
        raise ValueError("search_limit must be >= 1")
    theta.frac.require(search_limit)
    head = theta.frac_bytes(search_limit)
    if not any(head):
        # deg E leading zeros of the tail c/E (recurrence_bound) force c = 0
        rec = recurrence_bound((theta,))
        if rec is None:
            return BelowLimit(search_limit)
        head += theta.frac_bytes(rec, search_limit + 1)
    zeros = len(head) - len(head.lstrip(b"\0"))
    return QVal(-zeros - 1) if zeros < len(head) else ZERO


def poly_times_series_frac(n: Poly, theta: LaurentSeries, count: int) -> list[int]:
    """First `count` tail coefficients of n * theta.

    Entry i is sum_k n_k theta_{i+k}; the polynomial part of theta drops
    out of the tail.  Needs theta coefficients up to count + deg n.
    """
    if n.field != theta.field:
        raise ValueError("polynomial and series over different fields")
    if n.is_zero or count <= 0:
        return [0] * max(count, 0)
    theta.frac.require(count + n.deg)
    tail = theta.frac_bytes(count + n.deg)
    ops, neg = _Basis(theta.field), theta.field._neg
    acc = 0
    for k, nk in enumerate(n.coeffs):
        if nk:      # acc + n_k * (the tail from index k + 1 on)
            acc = ops.sub_multiple(acc, int.from_bytes(tail[k:k + count], "little"), neg[nk])
    return list(acc.to_bytes(count, "little"))


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

def _codes_text(codes: Sequence[int]) -> str:
    return "[" + ",".join(str(c) for c in codes) + "]"


def _frac_text(src: CoefficientSource) -> str:
    if isinstance(src, FiniteSource):
        return _codes_text(src.codes)
    if isinstance(src, RationalSource):
        return f"rational:{_codes_text(src.num.coeffs)}/{_codes_text(src.den.coeffs)}"
    if isinstance(src, PeriodicSource):
        pre = ",".join(str(c) for c in src.pre)
        per = ",".join(str(c) for c in src.per)
        return f"periodic:{pre}|{per}"
    if isinstance(src, RuleSource):
        return f"rule:{src.name}"
    raise ValueError(f"unserializable source {src!r}")


def series_to_text(theta: LaurentSeries) -> str:
    parts = [f"q={theta.field.q}"]
    if theta.field.k > 1:
        parts.append("modulus=" + ",".join(str(c) for c in theta.field.modulus))
    if not theta.poly_part.is_zero:
        parts.append("poly=" + _codes_text(theta.poly_part.coeffs))
    parts.append("frac=" + _frac_text(theta.frac))
    return "; ".join(parts)


def period_bound(series: Iterable[LaurentSeries]) -> int | None:
    """Largest preperiod plus the lcm of the periods of the tails: past this
    index every tail repeats with that common period.  None when some tail
    has no certified eventual period.  It bounds what the walk and the
    verifier claim, recurrence_bound the columns they build: bench/test_bench.py
    pins the degree-12 a/P walk as uncertified at this bound."""
    pre, per = 0, 1
    for s in series:
        info = s.frac.period_info()
        if info is None:
            return None
        pre, per = max(pre, info[0]), lcm(per, info[1])
    return pre + per


def recurrence_bound(series: Sequence[LaurentSeries]) -> int | None:
    """Leading zero digits that certify an F_q[t]-combination of the tails
    to be 0: deg E for a common denominator E, as the combination is c/E
    with deg c < deg E.  E = lcm(L, D), L the lcm of the reduced rational
    denominators and D = t^pre (t^per - 1) for the other tails (largest
    preperiod, lcm of the periods); E divides the denominator behind
    period_bound, so it is never larger.  None without certified periods.
    Every tail satisfies E's recurrence from index 1 on, so in a stacked
    Hankel row column k + deg E is a fixed combination of the deg E columns
    before it, and rank M[i, j] = rank M[i, min(j, deg E)]."""
    dens, pre, per, periodic = [], 0, 1, False
    for s in series:
        src = s.frac
        if isinstance(src, RationalSource):
            dens.append(src.reduced_den)
            continue
        info = src.period_info()
        if info is None:
            return None
        pre, per, periodic = max(pre, info[0]), lcm(per, info[1]), True
    L = reduce(lambda a, b: a * (b // _gcd(a, b)), dens) if dens else None
    if not periodic:
        return L.deg
    if L is None or L.deg < 1:
        return pre + per
    one = Poly(L.field, [1])
    return L.deg + pre + per - _gcd(L, _t_power(pre, L) * (_t_power(per, L) - one) % L).deg


def _t_power(e: int, m: Poly) -> Poly:
    """t^e mod m, by square-and-multiply."""
    out, base = Poly(m.field, [1]) % m, Poly(m.field, [0, 1]) % m
    while e:
        if e & 1:
            out = out * base % m
        base = base * base % m
        e >>= 1
    return out


def _gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, a % b
    return a


def _parse_codes(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def parse_frac(field: Field, text: str) -> CoefficientSource:
    """Parse the frac= payload of the series text format."""
    text = text.strip()
    if text.startswith("rational:"):
        body = text[len("rational:"):]
        num_s, _, den_s = body.partition("/")
        if not den_s:
            raise ValueError("rational source needs num/den")
        num = Poly(field, _parse_codes(num_s))
        den = Poly(field, _parse_codes(den_s))
        return RationalSource(num, den)
    if text.startswith("periodic:"):
        body = text[len("periodic:"):]
        pre_s, _, per_s = body.partition("|")
        if not per_s:
            raise ValueError("periodic source needs pre|per")
        return PeriodicSource(_parse_codes(pre_s), _parse_codes(per_s))
    if text.startswith("rule:"):
        return rule_source(text[len("rule:"):].strip())
    if text.startswith("finite:"):
        return FiniteSource(_parse_codes(text[len("finite:"):]))
    return FiniteSource(_parse_codes(text))


def parse_series(text: str, field: Field | None = None) -> LaurentSeries:
    """Parse "q=2; poly=[...]; frac=..." (q optional when field is given)."""
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        if not value:
            raise ValueError(f"malformed series field {chunk!r}")
        fields[key.strip()] = value.strip()
    if field is None:
        if "q" not in fields:
            raise ValueError("series text needs q= when no field is supplied")
        modulus = _parse_codes(fields["modulus"]) if "modulus" in fields else None
        field = Field.of_order(int(fields["q"]), modulus)
    elif "q" in fields and int(fields["q"]) != field.q:
        raise ValueError(f"series declares q={fields['q']}, expected {field.q}")
    poly = Poly(field, _parse_codes(fields["poly"])) if "poly" in fields \
        else Poly.zero(field)
    if "frac" not in fields:
        raise ValueError("series text needs a frac= component")
    return LaurentSeries(field, poly, parse_frac(field, fields["frac"]))


def _member(obj: dict, key: str, what: str, codes: bool = False):
    """obj[key]; ValueError when it is missing, or when codes is set and
    it is not a list (or tuple)."""
    if key not in obj:
        raise ValueError(f"{what} JSON needs {key!r}")
    if codes and not isinstance(obj[key], (list, tuple)):
        raise ValueError(f"{what} JSON {key!r} must list codes, not {obj[key]!r}")
    return obj[key]


def source_from_json(field: Field, obj: dict) -> CoefficientSource:
    """A coefficient source from its JSON object; a missing or non-list
    member raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a source must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    what = f"{kind} source"
    if kind == "finite":
        return FiniteSource(_member(obj, "coeffs", what, True))
    if kind == "periodic":
        return PeriodicSource(_member(obj, "pre", what, True), _member(obj, "per", what, True))
    if kind == "rational":
        return RationalSource(Poly(field, _member(obj, "num", what, True)),
                              Poly(field, _member(obj, "den", what, True)))
    if kind == "rule":
        return rule_source(_member(obj, "name", what))
    raise ValueError(f"unknown source kind {kind!r}")


def series_from_json(obj: dict, field: Field | None = None) -> LaurentSeries:
    """A series from its JSON object.  A missing member, a q that is not an
    int (a bool is none) and a key other than q, modulus, poly and frac
    raise ValueError; so does a q or modulus naming another field than the
    one given."""
    if not isinstance(obj, dict):
        raise ValueError(f"a series must be a JSON object, not {obj!r}")
    if not set(obj) <= {"q", "modulus", "poly", "frac"}:
        raise ValueError(f"series JSON has keys other than q, modulus, poly and frac: {obj!r}")
    if field is None:
        if type(_member(obj, "q", "series")) is not int:
            raise ValueError(f"series JSON q must be an int, not {obj['q']!r}")
        field = Field.of_order(obj["q"], obj.get("modulus"))
    elif "q" in obj and (type(obj["q"]) is not int
                         or Field.of_order(obj["q"], obj.get("modulus")) != field):
        raise ValueError(f"series JSON declares another field than {field}")
    poly = Poly(field, _member(obj, "poly", "series", True) if "poly" in obj else ())
    return LaurentSeries(field, poly, source_from_json(field, _member(obj, "frac", "series")))


def series_roundtrip_check(theta: LaurentSeries) -> bool:
    """Text and JSON forms parse back to an equal series."""
    return (parse_series(series_to_text(theta)) == theta
            and series_from_json(json.loads(json.dumps(theta.to_json()))) == theta)
