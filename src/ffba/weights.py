"""Generalized weights: integer splittings of the degree filtration.

A generalized weight on d coordinates assigns to every height h >= 0 a
vector g(h) of nonnegative integers with sum h, each coordinate
nondecreasing, and exactly one coordinate stepping by 1 at each height.
Equivalently it is the assignment sequence s_1, s_2, ... in {1..d} of which
coordinate takes step h.

A real weight r (nonnegative rationals summing to 1) induces a generalized
weight g_r: at each step the coordinate maximizing r^s (h+1) - g^s(h) takes
the step, ties broken toward the lowest coordinate index.  The induced
weight stays within fixed distance of the line r*h:

    -(1 - 1/d) <= r^s h - g_r^s(h) <= (d - 1)(1 - 1/d)   for all h, s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

__all__ = ["GeneralizedWeight", "parse_real_weight", "parse_weight",
           "weight_eval", "induced_weight", "deviation_range"]


def _as_fraction(x) -> Fraction:
    """An exact rational from a Fraction, an int, an "n/m" string or an
    (n, m) pair of ints."""
    pair = isinstance(x, tuple) and len(x) == 2 and all(type(v) is int for v in x)
    if not (pair or isinstance(x, (Fraction, int, str))):
        raise ValueError(f"cannot read {x!r} as an exact rational")
    try:
        return Fraction(*x) if pair else Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def parse_real_weight(items) -> tuple[Fraction, ...]:
    """Validate a real weight vector: entries in [0,1], exact sum 1."""
    r = tuple(_as_fraction(x) for x in items)
    if not r:
        raise ValueError("real weight needs at least one coordinate")
    if any(x < 0 or x > 1 for x in r):
        raise ValueError("real weight entries must lie in [0, 1]")
    if sum(r) != 1:
        raise ValueError("real weight entries must sum to exactly 1")
    return r


class GeneralizedWeight:
    """Assignment-backed weight with memoized cumulative evaluation."""

    def __init__(self, d: int, kind: str, *, cycle: tuple[int, ...] = (),
                 real: tuple[Fraction, ...] = ()):
        self.d = d
        self.kind = kind            # "assign" or "real"
        self.cycle = cycle
        self.real = real
        self._assign: list[int] = []
        self._cum: list[tuple[int, ...]] = [(0,) * d]
        if kind == "real":
            self._g = [Fraction(0)] * d

    # --- constructors --------------------------------------------------

    @classmethod
    def from_assignment(cls, d: int, cycle: Sequence[int]) -> "GeneralizedWeight":
        """Steps follow the given coordinate list, repeated cyclically."""
        cyc = tuple(cycle)
        if not cyc:
            raise ValueError("assignment cycle must be nonempty")
        if type(d) is not int or any(type(s) is not int or not 1 <= s <= d for s in cyc):
            raise ValueError(f"assignment entries must be ints in 1..{d}")
        return cls(d, "assign", cycle=cyc)

    @classmethod
    def from_real(cls, r) -> "GeneralizedWeight":
        """The integer weight induced by a real weight r (greedy steps)."""
        rr = parse_real_weight(r)
        return cls(len(rr), "real", real=rr)

    @classmethod
    def equal(cls, d: int) -> "GeneralizedWeight":
        return cls.from_real([Fraction(1, d)] * d)

    @classmethod
    def one_dim(cls) -> "GeneralizedWeight":
        return cls.from_assignment(1, (1,))

    # --- evaluation ------------------------------------------------------

    def _extend(self, h: int) -> None:
        while len(self._assign) < h:
            step = len(self._assign) + 1
            if self.kind == "assign":
                s = self.cycle[(step - 1) % len(self.cycle)]
            else:
                best = None
                for idx in range(self.d):
                    score = self.real[idx] * step - self._g[idx]
                    if best is None or score > best[0]:
                        best = (score, idx)
                s = best[1] + 1
                self._g[s - 1] += 1
            self._assign.append(s)
            prev = self._cum[-1]
            self._cum.append(tuple(v + 1 if idx == s - 1 else v
                                   for idx, v in enumerate(prev)))

    def assign(self, h: int) -> int:
        """Coordinate (1-based) that takes step h >= 1."""
        if h < 1:
            raise ValueError("steps are 1-based")
        self._extend(h)
        return self._assign[h - 1]

    def eval(self, h: int) -> tuple[int, ...]:
        """g(h): cumulative step counts per coordinate, sum = h."""
        if h < 0:
            raise ValueError("heights are nonnegative")
        self._extend(h)
        return self._cum[h]

    def offsets(self, h: int) -> tuple[int, ...]:
        """Stacked block offsets: offset_s = sum of g^{s'}(h) for s' < s."""
        return tuple(accumulate(self.eval(h)[:-1], initial=0))

    # --- serialization ----------------------------------------------------

    def to_text(self) -> str:
        if self.kind == "assign":
            return "assign:" + ",".join(str(s) for s in self.cycle)
        return "r:" + ",".join(str(x) for x in self.real)

    def to_json(self) -> dict:
        if self.kind == "assign":
            return {"kind": "assign", "d": self.d, "cycle": list(self.cycle)}
        return {"kind": "real", "d": self.d,
                "r": [[x.numerator, x.denominator] for x in self.real]}

    @classmethod
    def from_json(cls, obj: dict) -> "GeneralizedWeight":
        kind, d = obj["kind"], obj["d"]
        w = cls.from_assignment(d, obj["cycle"]) if kind == "assign" \
            else cls.from_real([_as_fraction((n, m)) for n, m in obj["r"]])
        if kind not in ("assign", "real") or type(d) is not int or d != w.d:
            raise ValueError(f"a weight of kind {kind!r} and d={d!r} is not {w.to_json()}")
        return w

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneralizedWeight) and other.d == self.d
                and other.kind == self.kind and other.cycle == self.cycle
                and other.real == self.real)

    def __repr__(self) -> str:
        return f"GeneralizedWeight({self.to_text()}, d={self.d})"


def parse_weight(text: str, d: int | None = None) -> GeneralizedWeight:
    """Parse "r:1/2,1/2", "assign:1,2", or "equal" (needs d)."""
    text = text.strip()
    if text.startswith("r:"):
        return GeneralizedWeight.from_real(text[2:].split(","))
    if text.startswith("assign:"):
        cycle = [int(tok) for tok in text[len("assign:"):].split(",")]
        dd = d if d is not None else max(cycle)
        return GeneralizedWeight.from_assignment(dd, cycle)
    if text == "equal":
        if d is None:
            raise ValueError("weight 'equal' needs the coordinate count")
        return GeneralizedWeight.equal(d)
    raise ValueError(f"cannot parse weight {text!r}")


weight_eval = GeneralizedWeight.eval
induced_weight = GeneralizedWeight.from_real


def deviation_range(r, h_max: int) -> tuple[Fraction, Fraction]:
    """Exact min and max of r^s h - g_r^s(h) over 1 <= h <= h_max, all s."""
    rr = parse_real_weight(r)
    g = GeneralizedWeight.from_real(rr)
    lo = hi = Fraction(0)
    for h in range(1, h_max + 1):
        gv = g.eval(h)
        for s in range(len(rr)):
            dev = rr[s] * h - gv[s]
            lo = min(lo, dev)
            hi = max(hi, dev)
    return lo, hi
