"""Alternating row/column rank thresholds of the stacked coefficient matrix.

Starting from i_0 = ell (and j_0 = 0 by convention), each stage m >= 1
finds

    j_m = least j with rank M[i_{m-1}, j] = i_{m-1}   (full row rank),
    i_m = least i with rank M[i, j_m] = i - ell       (deficiency ell),

where M[i, j] is the i x j stacked matrix of the hankel module.  The walk
satisfies i_m <= j_m + ell, i_m >= i_{m-1} + ell and j_m >= j_{m-1} + ell
on every completed stage, and j_m stays finite exactly when no row extent
reaches a permanent rank plateau.

Ranks come from one echelon of the stacked rows in walk order
(hankel.RowEchelon), kept for the whole walk: rank M[i, j] is the number
of pivots below j among the first i rows.  So j_m is one past the top
pivot once all i_{m-1} rows have pivots below the scan stop, and i_m is
reached by appending rows until ell of them add no pivot below j_m.  The
scan stop is j_cutoff, the source guarantees, or the certified period
bound, which bounds the claim; no rank grows past the recurrence order
D (series.recurrence_bound), which bounds the work.  The echelon starts
at stage_budget * ell columns capped at the first stop and D (a walk
that completes its budget scans to j_B >= B * ell anyway) and doubles up
to them; pivots and row tags below a width do not depend on the
echelon's width, so the start only saves re-packing.
Each column scan that finds j_{m+1} also reads b_m off the row tags.

A plateau is certified (j_m infinite) only when every coordinate's source
has an eventual period: columns repeat once the scan passes the combined
preperiod plus period, so a plateau there is permanent.  Finite sources and
column caps instead end the walk with an exhausted stage: nothing beyond
the scanned width is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum

from .hankel import RowEchelon, default_weight
from .series import as_vector, period_bound, recurrence_bound
from .weights import GeneralizedWeight

__all__ = ["StageStatus", "Stage", "IndicesTrace", "indices_sequence",
           "rationality_probe", "RationalityVerdict"]

DEFAULT_J_CUTOFF = 4096
# No walk scans past this many columns, so no certificate claims a wider
# stage, and the verifier refuses wider ones before allocating rows.
MAX_J_CUTOFF = 1 << 17
_START_WIDTH = 8        # least starting echelon width (see the module docstring)


class StageStatus(Enum):
    FOUND = "found"
    INFINITE_CERTIFIED = "infinite_certified"
    EXHAUSTED = "exhausted_at_cutoff"


@dataclass(frozen=True)
class Stage:
    """One walk stage.  For terminal stages, i repeats the previous row
    extent when the column scan ended (j is None), and j records the found
    column when the row scan could not finish (i is None).  scan_width is
    the widest column index actually examined by this stage's column scan."""

    m: int
    i: int | None
    j: int | None
    status: StageStatus
    scan_width: int = 0

    def to_json(self) -> dict:
        return {"m": self.m, "i": self.i, "j": self.j,
                "status": self.status.value, "scan_width": self.scan_width}


@dataclass
class IndicesTrace:
    """annihilators[m], for each stage m whose next column scan found j_{m+1}:
    the left kernel of M[i_m, j_{m+1} - 1] in walk order (not in JSON or ==)."""

    ell: int
    weight: GeneralizedWeight
    stages: list[Stage] = dc_field(default_factory=list)
    j_cutoff: int = DEFAULT_J_CUTOFF
    stage_budget: int = 0
    annihilators: dict[int, bytes] = dc_field(default_factory=dict, compare=False,
                                              repr=False)

    @property
    def certified_rational(self) -> bool:
        return bool(self.stages) and \
            self.stages[-1].status is StageStatus.INFINITE_CERTIFIED

    @property
    def exhausted(self) -> bool:
        return bool(self.stages) and \
            self.stages[-1].status is StageStatus.EXHAUSTED

    def found_stages(self) -> list[Stage]:
        return [s for s in self.stages if s.status is StageStatus.FOUND]

    def to_json(self) -> dict:
        return {"ell": self.ell, "weight": self.weight.to_json(),
                "j_cutoff": self.j_cutoff, "stage_budget": self.stage_budget,
                "stages": [s.to_json() for s in self.stages]}


def indices_sequence(theta, weight: GeneralizedWeight | None = None,
                     ell: int = 1, stage_budget: int = 8,
                     j_cutoff: int = DEFAULT_J_CUTOFF) -> IndicesTrace:
    """Run the alternating rank walk for up to stage_budget stages.

    The trace always begins with the conventional stage (0, ell, 0).
    Completed stages are FOUND; the walk ends early with one terminal
    stage that is either INFINITE_CERTIFIED (permanent plateau, certified
    from source periods) or EXHAUSTED (finite data or j_cutoff stopped the
    scan; nothing is claimed past scan_width).
    """
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if stage_budget < 0:
        raise ValueError("stage_budget must be nonnegative")
    if not 0 <= j_cutoff <= MAX_J_CUTOFF:
        raise ValueError(f"j_cutoff {j_cutoff} outside the supported 0..{MAX_J_CUTOFF}")
    trace = IndicesTrace(ell=ell, weight=w, j_cutoff=j_cutoff,
                         stage_budget=stage_budget)
    trace.stages.append(Stage(0, ell, 0, StageStatus.FOUND))
    if stage_budget == 0:
        return trace
    # the period bound (plus i as margin) bounds the claim, the recurrence order the work
    bound, rec = period_bound(vec), recurrence_bound(vec)
    ech = RowEchelon(vec, w, 0)
    for _ in range(ell):
        ech.append()
    cur_i = ell
    for m in range(1, stage_budget + 1):
        # --- column scan: least j with full row rank at extent cur_i.
        # Rows are exact up to ech.cover, which the stop never exceeds.
        cert_width = None if bound is None else bound + cur_i
        scan_stop = min(x for x in (j_cutoff, ech.cover, cert_width) if x is not None)
        work = scan_stop if rec is None else min(scan_stop, rec)
        if m == 1:
            ech.widen(max(_START_WIDTH, min(stage_budget * ell, work)))
        j_found = ech.full_rank_width(work)
        if j_found is None:
            c = max(scan_stop, 0)
            status = StageStatus.INFINITE_CERTIFIED \
                if cert_width is not None and c >= cert_width else StageStatus.EXHAUSTED
            trace.stages.append(Stage(m, cur_i, None, status, c))
            return trace
        trace.annihilators[m - 1] = ech.annihilator(j_found)
        # --- row scan: least i with rank deficiency ell at width j_found,
        # rank M[i, j_found] being the number of pivots below j_found
        i = rank = cur_i
        while i - rank < ell:
            i += 1
            assert i <= j_found + ell, "row scan must stop by j + ell"
            p, cover = ech.append()
            if cover is not None and cover < j_found:
                trace.stages.append(Stage(m, None, j_found,
                                          StageStatus.EXHAUSTED, j_found))
                return trace
            rank += 0 <= p < j_found
        trace.stages.append(Stage(m, i, j_found, StageStatus.FOUND,
                                  scan_width=j_found))
        cur_i = i
    return trace


@dataclass(frozen=True)
class RationalityVerdict:
    kind: str                   # rational_certified | irrational_witnessed | unknown
    stages_found: int
    trace: IndicesTrace

    def to_json(self) -> dict:
        return {"kind": self.kind, "stages_found": self.stages_found}


def rationality_probe(theta, ell: int = 1, stage_budget: int = 8,
                      j_cutoff: int = DEFAULT_J_CUTOFF,
                      weight: GeneralizedWeight | None = None,
                      trace: IndicesTrace | None = None) -> RationalityVerdict:
    """Probe for the rank plateau that characterizes rational tails.

    rational_certified: a permanent plateau was certified (the tail is
    rational).  irrational_witnessed(M): M stages completed without a
    plateau, consistent with (not proof of) irrationality.  unknown: the
    scan ended before the first stage completed.  A trace from a previous
    walk of the same inputs can be supplied to skip re-walking.
    """
    if trace is None:
        trace = indices_sequence(theta, weight, ell, stage_budget, j_cutoff)
    found = len(trace.found_stages()) - 1  # stage 0 is conventional
    if trace.certified_rational:
        return RationalityVerdict("rational_certified", found, trace)
    if found >= 1:
        return RationalityVerdict("irrational_witnessed", found, trace)
    return RationalityVerdict("unknown", found, trace)
