"""Laurent series in F_q((1/t)) split as polynomial part plus proper tail.

A series theta = poly_part + sum_{i>=1} theta_i t^{-i} is stored as a Poly
and a coefficient source for the tail.  Coefficient indices are 1-based:
theta_i is the coefficient of t^{-i}.  Sources declare how much of the tail
they can produce:

* Finite(codes)     -- exactly len(codes) coefficients, then it is an error
                       to ask further (truncated data never silently pads).
* Rational(num/den) -- lazy long division, unbounded, eventually periodic.
* Periodic(pre|per) -- explicit eventually periodic tail, unbounded.
* Rule(name)        -- coefficients from a registered function, unbounded.

Sources that know an eventual period (Rational, Periodic, Rule with a
declared period) can certify that a tail is exactly zero; a Finite source
can only report BelowLimit when every scanned coefficient vanishes.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import InsufficientPrecisionError, TooLargeToEnumerateError
from .field import Field
from .polynomial import Poly
from .qval import QVal, ZERO, BelowLimit

__all__ = [
    "CoefficientSource", "FiniteSource", "PeriodicSource", "RationalSource",
    "RuleSource", "LaurentSeries", "expand_rational", "frac_abs",
    "poly_times_series_frac", "parse_series", "series_to_text", "as_vector",
    "register_rule", "period_bound",
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

    Each step multiplies the running remainder by t and splits off the
    constant quotient digit.  Remainder states repeat, so the stream is
    eventually periodic; the exact (preperiod, period) is found by
    recording states until the first revisit.
    """

    kind = "rational"

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational source with zero denominator")
        self.num = num
        self.den = den
        self._rem = num % den
        self._coeffs: list[int] = []
        self._states: dict[tuple[int, ...], int] = {self._rem.coeffs: 0}
        self._period: tuple[int, int] | None = None

    def _step(self) -> None:
        quot, rem = divmod(self._rem.shift(1), self.den)
        self._coeffs.append(quot.coefficient(0))
        self._rem = rem
        if self._period is None:
            seen = self._states.get(rem.coeffs)
            if seen is not None:
                self._period = (seen, len(self._coeffs) - seen)
            else:
                self._states[rem.coeffs] = len(self._coeffs)

    def coefficient(self, i: int) -> int:
        if i < 1:
            raise ValueError("coefficient indices are 1-based")
        if self._period is not None:
            a, p = self._period
            if i > len(self._coeffs):
                i = a + 1 + (i - a - 1) % p
        while len(self._coeffs) < i:
            self._step()
        return self._coeffs[i - 1]

    def period_info(self) -> tuple[int, int]:
        while self._period is None:
            if len(self._coeffs) > _PERIOD_SEARCH_CAP:
                raise TooLargeToEnumerateError(
                    "period search exceeded the supported state count")
            self._step()
        return self._period

    def to_json(self) -> dict:
        return {"kind": "rational", "num": list(self.num.coeffs),
                "den": list(self.den.coeffs)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalSource) and other.num == self.num
                and other.den == self.den)

    def __hash__(self) -> int:
        return hash(("rational", self.num, self.den))


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
        for c in frac.listed_codes():
            field.check(c)
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
        return self.frac.coefficient(i)

    def frac_coeffs(self, count: int) -> list[int]:
        return [self.frac.coefficient(i) for i in range(1, count + 1)]

    def frac_bytes(self, stop: int, start: int = 1) -> bytes:
        """Tail codes start..stop as bytes.  Listed codes were checked when
        the series was built; a rule's codes are checked here, so a code
        outside range(q) raises ElementCodeError."""
        codes = [self.frac.coefficient(i) for i in range(start, stop + 1)]
        if codes and not 0 <= min(codes) <= max(codes) < self.field.q:
            self.field.check(next(c for c in codes if not 0 <= c < self.field.q))
        return bytes(codes)

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

def expand_rational(num: Poly, den: Poly, prec: int = 0) -> LaurentSeries:
    """num/den as polynomial part plus an unbounded rational tail.

    prec forces that many tail coefficients to be materialized up front;
    the source remains unbounded either way.
    """
    if den.is_zero:
        raise ZeroDivisionError("expansion of division by zero")
    poly_part = num // den
    src = RationalSource(num, den)
    series = LaurentSeries(num.field, poly_part, src)
    if prec > 0:
        src.coefficient(prec)
    return series


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
    for i in range(1, search_limit + 1):
        if theta.frac.coefficient(i):
            return QVal(-i)
    info = theta.frac.period_info()
    if info is None:
        return BelowLimit(search_limit)
    a, p = info
    for i in range(search_limit + 1, a + p + 1):
        if theta.frac.coefficient(i):
            return QVal(-i)
    return ZERO


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
    f = theta.field
    add, mul = f.add, f.mul
    coeffs = [theta.frac.coefficient(i) for i in range(1, count + n.deg + 1)]
    out = []
    for i in range(count):
        acc = 0
        for k, nk in enumerate(n.coeffs):
            if nk:
                acc = add(acc, mul(nk, coeffs[i + k]))
        out.append(acc)
    return out


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
    has no certified eventual period."""
    pre, per = 0, 1
    for s in series:
        info = s.frac.period_info()
        if info is None:
            return None
        pre, per = max(pre, info[0]), lcm(per, info[1])
    return pre + per


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


def source_from_json(field: Field, obj: dict) -> CoefficientSource:
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteSource(obj["coeffs"])
    if kind == "periodic":
        return PeriodicSource(obj["pre"], obj["per"])
    if kind == "rational":
        return RationalSource(Poly(field, obj["num"]), Poly(field, obj["den"]))
    if kind == "rule":
        return rule_source(obj["name"])
    raise ValueError(f"unknown source kind {kind!r}")


def series_from_json(obj: dict, field: Field | None = None) -> LaurentSeries:
    if field is None:
        field = Field.of_order(int(obj["q"]), obj.get("modulus"))
    elif "q" in obj and int(obj["q"]) != field.q:
        raise ValueError("series JSON declares a different q")
    poly = Poly(field, obj.get("poly", []))
    return LaurentSeries(field, poly, source_from_json(field, obj["frac"]))


def series_roundtrip_check(theta: LaurentSeries) -> bool:
    """Text and JSON forms parse back to an equal series."""
    return (parse_series(series_to_text(theta)) == theta
            and series_from_json(json.loads(json.dumps(theta.to_json()))) == theta)
