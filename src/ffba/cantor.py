"""Nested cylinder constructions: exact measures and dimension bounds.

A construction schedule lists, per stage m, the d-vector ell_m of digit
positions each coordinate gains and the exponent ellp_m < sum(ell_m) such
that at most q^{ellp_m} of the q^{sum(ell_m)} extensions of each surviving
cylinder are removed.  With exactly q^{ellp_m} removed the surviving mass
after each stage is the exact product

    mu(stage m+1) = mu(stage m) * (q^{lbar_m} - q^{ellp_m}) / q^{lbar_m},

and the limit set has Hausdorff dimension at least

    d - limsup_m (m+1) / (min_s sum_{k<m} ell_k^s) * log(q/(q-1)) / log q.

Everything except the final dimension number is exact Fraction arithmetic;
the dimension evaluator is the only float surface (compare at 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import DegenerateScheduleError, InvalidScheduleError

__all__ = ["ConstructionSchedule", "CylinderSet", "as_schedule",
           "measure_after_stages", "dimension_lower_bound",
           "validate_tree_like", "TreeReport"]


def _as_ell_vector(ell) -> tuple[int, ...]:
    if isinstance(ell, int):
        return (ell,)
    return tuple(int(x) for x in ell)


class ConstructionSchedule:
    """Stage lengths (ell_m vectors) and removal exponents (ellp_m).

    kind "constant" repeats one (ell, ellp) pair forever and admits closed
    forms; kind "explicit" carries finite lists.
    """

    def __init__(self, kind: str, d: int, ell=None, ellp=None,
                 ells=None, ellps=None):
        self.kind = kind
        self.d = d
        self.ell = ell
        self.ellp = ellp
        self.ells = ells
        self.ellps = ellps

    @classmethod
    def constant(cls, ell, ellp: int | None = None) -> "ConstructionSchedule":
        vec = _as_ell_vector(ell)
        total = sum(vec)
        if ellp is None:
            ellp = total - 1
        if any(x < 0 for x in vec) or total < 1:
            raise InvalidScheduleError("stage lengths must be nonnegative, total >= 1")
        if not 0 <= ellp < total:
            raise InvalidScheduleError("need 0 <= ellp < sum(ell)")
        return cls("constant", len(vec), ell=vec, ellp=ellp)

    @classmethod
    def explicit(cls, stages: Sequence[tuple]) -> "ConstructionSchedule":
        ells = []
        ellps = []
        for ell, ellp in stages:
            vec = _as_ell_vector(ell)
            total = sum(vec)
            if any(x < 0 for x in vec) or total < 1:
                raise InvalidScheduleError("stage lengths must be nonnegative, total >= 1")
            if not 0 <= ellp < total:
                raise InvalidScheduleError("need 0 <= ellp < sum(ell) at every stage")
            if ells and len(vec) != len(ells[0]):
                raise InvalidScheduleError("stages mix coordinate counts")
            ells.append(vec)
            ellps.append(int(ellp))
        if not ells:
            raise InvalidScheduleError("explicit schedule needs at least one stage")
        return cls("explicit", len(ells[0]), ells=ells, ellps=ellps)

    @property
    def stage_count(self) -> int | None:
        return None if self.kind == "constant" else len(self.ells)

    def stage_ell(self, m: int) -> tuple[int, ...]:
        if self.kind == "constant":
            return self.ell
        return self.ells[m]

    def stage_ellp(self, m: int) -> int:
        if self.kind == "constant":
            return self.ellp
        return self.ellps[m]

    def _check_stage_range(self, m: int) -> None:
        if m < 0:
            raise InvalidScheduleError("stage counts are nonnegative")
        if self.stage_count is not None and m > self.stage_count:
            raise InvalidScheduleError(
                f"schedule has {self.stage_count} stages, {m} requested")

    def measure_limit_zero(self) -> bool | None:
        """True when the schedule provably drives the measure to zero
        (gap lbar - ellp bounded, infinitely many stages); None if the
        schedule rule does not decide it."""
        if self.kind == "constant":
            return True
        return None


def measure_after_stages(schedule: ConstructionSchedule, m: int, q: int) -> Fraction:
    """Exact surviving measure after m stages, assuming full removal
    (exactly q^{ellp} extensions removed per cylinder per stage)."""
    schedule._check_stage_range(m)
    if q < 2:
        raise ValueError(f"field order {q} must be at least 2")
    out = Fraction(1)
    for k in range(m):
        total = sum(schedule.stage_ell(k))
        ellp = schedule.stage_ellp(k)
        out *= Fraction(q ** total - q ** ellp, q ** total)
    return out


def as_schedule(source) -> ConstructionSchedule:
    """Coerce a schedule, a rank-walk trace, or a target certificate to an
    explicit ConstructionSchedule.

    Traces and certificates carry stage extents i_m; the realized schedule
    has stage vectors g(i_m) - g(i_{m-1}) and removal exponent sum - 1
    (one hyperplane condition per stage)."""
    if isinstance(source, ConstructionSchedule):
        return source
    weight = getattr(source, "weight", None)
    recs = getattr(source, "stages", None)
    if weight is None or recs is None:
        raise InvalidScheduleError(
            f"cannot derive a schedule from {type(source).__name__}")
    if hasattr(source, "gamma_digits"):
        extents = [st.i for st in recs]
    else:
        # a walk trace: only stages whose following column threshold is
        # known carry a realizable constraint
        extents = [st.i for st in recs[:-1] if st.i is not None]
    if not extents:
        raise InvalidScheduleError("no completed stages to derive a schedule")
    stages = []
    prev = (0,) * weight.d
    for i in extents:
        g_now = weight.eval(i)
        vec = tuple(a - b for a, b in zip(g_now, prev))
        stages.append((vec, sum(vec) - 1))
        prev = g_now
    return ConstructionSchedule.explicit(stages)


def dimension_lower_bound(source, m: int | None = None, d: int | None = None,
                          q: int | None = None) -> float:
    """Dimension lower bound for the limit set of a schedule (or of the
    schedule realized by a walk trace / target certificate).

    With m given, evaluates d - (m+1)/(min_s sum_{k<m} ell_k^s) * C(q)
    where C(q) = log(q/(q-1))/log(q); the ratio is exact, only the final
    product is floating point.  With m=None a constant schedule gets its
    limit value d - (1/min_s ell^s) * C(q) and an explicit schedule is
    evaluated over all its stages.
    """
    schedule = as_schedule(source)
    if d is not None and d != schedule.d:
        raise InvalidScheduleError(
            f"schedule has {schedule.d} coordinates, d={d} requested")
    if q is None:
        field = getattr(source, "field", None)
        q = getattr(field, "q", None)
    if q is None:
        raise ValueError("field size q is required for the dimension bound")
    if q < 2:
        raise ValueError(f"field order {q} must be at least 2")
    const = (math.log(q) - math.log(q - 1)) / math.log(q)
    if m is None and schedule.kind == "constant":
        lo = min(schedule.ell)
        if lo == 0:
            raise DegenerateScheduleError("a coordinate never refines")
        return schedule.d - float(Fraction(1, lo)) * const
    if m is None:
        m = schedule.stage_count
    if m < 1:
        raise InvalidScheduleError("finite-stage bound needs m >= 1")
    schedule._check_stage_range(m)
    lo = min(map(sum, zip(*(schedule.stage_ell(k) for k in range(m)))))
    if lo == 0:
        raise DegenerateScheduleError("a coordinate never refines")
    return schedule.d - float(Fraction(m + 1, lo)) * const


# ---------------------------------------------------------------------------
# Explicit cylinder families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderSet:
    """Cylinders of one stage: a common digit-extent vector and the set of
    surviving digit blocks, stacked coordinate-major (coordinate 1's digits,
    then coordinate 2's, ...)."""

    ell: tuple[int, ...]
    blocks: frozenset

    @property
    def total(self) -> int:
        return sum(self.ell)

    def measure(self, q: int) -> Fraction:
        return Fraction(len(self.blocks), q ** self.total)

    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.ell[:-1], initial=0))[:len(self.ell)]

    def restrict(self, smaller: tuple[int, ...]) -> set:
        """Every block projected down to a smaller extent vector, with the
        offsets taken once; a prefix slice when d = 1."""
        if len(self.ell) == 1:
            return {blk[:smaller[0]] for blk in self.blocks}
        cuts = [(off, off + take) for off, take in zip(self.offsets(), smaller)]
        return {tuple(c for lo, hi in cuts for c in blk[lo:hi]) for blk in self.blocks}


@dataclass
class TreeReport:
    ok: bool
    checks: list[tuple[str, bool, str]]

    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]


def validate_tree_like(stages: Sequence[CylinderSet]) -> TreeReport:
    """Check the strongly tree-like conditions on a finite stage list.

    1. stage 0 is the full cube (extent 0, single empty block);
    2. every stage retains at least one cylinder of positive measure;
    3. cylinders within a stage are distinct same-extent blocks;
    4. every stage-(m+1) cylinder refines a stage-m cylinder;
    5. every stage-m cylinder contains a stage-(m+1) cylinder;
    6. cylinder diameters strictly decrease between stages
       (min_s ell^s strictly increases).
    """
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    if not stages:
        add("nonempty", False, "no stages supplied")
        return TreeReport(False, checks)
    first = stages[0]
    add("stage0_full_cube",
        first.total == 0 and first.blocks == frozenset({()}),
        f"extent {first.ell}, {len(first.blocks)} blocks")
    for m, st in enumerate(stages):
        add(f"stage{m}_positive_measure", len(st.blocks) > 0,
            f"{len(st.blocks)} cylinders")
        total = st.total
        bad = [b for b in st.blocks if len(b) != total]
        add(f"stage{m}_well_formed", not bad,
            "" if not bad else f"{len(bad)} blocks of wrong length")
    for m in range(len(stages) - 1):
        a, b = stages[m], stages[m + 1]
        grows = all(x <= y for x, y in zip(a.ell, b.ell)) and len(a.ell) == len(b.ell)
        add(f"stage{m + 1}_extends_extent", grows, f"{a.ell} -> {b.ell}")
        if not grows:
            continue
        parents = b.restrict(a.ell)
        add(f"stage{m + 1}_refines", parents <= a.blocks,
            f"{len(parents - a.blocks)} orphan cylinders")
        add(f"stage{m}_all_refined", a.blocks <= parents,
            f"{len(a.blocks - parents)} childless cylinders")
        add(f"stage{m + 1}_diameter_shrinks", min(b.ell) > min(a.ell),
            f"min extent {min(a.ell)} -> {min(b.ell)}")
    return TreeReport(all(c[1] for c in checks), checks)
