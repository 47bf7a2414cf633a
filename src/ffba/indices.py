"""Alternating row/column rank thresholds of the stacked coefficient matrix.

Starting from i_0 = ell (and j_0 = 0 by convention), each stage m >= 1
finds

    j_m = least j with rank M[i_{m-1}, j] = i_{m-1}   (full row rank),
    i_m = least i with rank M[i, j_m] = i - ell       (deficiency ell),

where M[i, j] is the i x j stacked matrix of the hankel module.  The walk
satisfies i_m <= j_m + ell, i_m >= i_{m-1} + ell and j_m >= j_{m-1} + ell
on every completed stage, and j_m stays finite exactly when no row extent
reaches a permanent rank plateau.

A plateau is certified (j_m infinite) only when every coordinate's source
has an eventual period: columns repeat once the scan passes the combined
preperiod plus period, so a plateau there is permanent.  Finite sources and
column caps instead end the walk with an exhausted stage: nothing beyond
the scanned width is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum

from .hankel import HankelView, default_weight
from .linalg import RankEngine
from .series import LaurentSeries, as_vector, period_bound
from .weights import GeneralizedWeight

__all__ = ["StageStatus", "Stage", "IndicesTrace", "indices_sequence",
           "rationality_probe", "RationalityVerdict"]

DEFAULT_J_CUTOFF = 4096


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
    ell: int
    weight: GeneralizedWeight
    stages: list[Stage] = dc_field(default_factory=list)
    j_cutoff: int = DEFAULT_J_CUTOFF
    stage_budget: int = 0

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


def _max_scan_col(theta, weight, i: int) -> int | None:
    """Largest column index c such that every entry of the i-row matrix at
    column c is within its coordinate's guarantee (None = unlimited)."""
    heights = weight.eval(i)
    cap: int | None = None
    for s, h in enumerate(heights):
        g = theta[s].guarantee
        if g is not None and h > 0:
            c_max = g - (h - 1)
            cap = c_max if cap is None else min(cap, c_max)
    return cap


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
    field = vec[0].field
    trace = IndicesTrace(ell=ell, weight=w, j_cutoff=j_cutoff,
                         stage_budget=stage_budget)
    trace.stages.append(Stage(0, ell, 0, StageStatus.FOUND))
    cur_i = ell
    for m in range(1, stage_budget + 1):
        # --- column scan: least j with full row rank at extent cur_i ----
        engine = RankEngine(field)
        cap = _max_scan_col(vec, w, cur_i)
        # columns repeat past the period bound; the extra i is safety margin
        bound = period_bound(vec)
        cert_width = None if bound is None else bound + cur_i
        hard_cap = j_cutoff if cap is None else min(cap, j_cutoff)
        scan_stop = hard_cap if cert_width is None else min(cert_width, hard_cap)
        view = HankelView(vec, w, cur_i, scan_stop)
        j_found = None
        c = 0
        while c < scan_stop:
            c += 1
            engine.add(view.column(c))
            if engine.rank == cur_i:
                j_found = c
                break
        if j_found is None:
            if cert_width is not None and c >= cert_width:
                trace.stages.append(Stage(m, cur_i, None,
                                          StageStatus.INFINITE_CERTIFIED, c))
            else:
                trace.stages.append(Stage(m, cur_i, None,
                                          StageStatus.EXHAUSTED, c))
            return trace
        # --- row scan: least i with rank deficiency ell at width j_found --
        engine = RankEngine(field)
        rows = [[vec[s].frac.coefficient(r - 1 + cc) for cc in range(1, j_found + 1)]
                for s, h in enumerate(w.eval(cur_i)) for r in range(1, h + 1)]
        for row in rows:
            engine.add(row)
        assert engine.rank == cur_i, "column scan must end at full row rank"
        i = cur_i
        i_found = None
        while True:
            i += 1
            assert i <= j_found + ell, "row scan must stop by j + ell"
            s_new = w.assign(i)
            r_new = w.eval(i)[s_new - 1]
            g = vec[s_new - 1].guarantee
            if g is not None and r_new - 1 + j_found > g:
                trace.stages.append(Stage(m, None, j_found,
                                          StageStatus.EXHAUSTED, j_found))
                return trace
            coeff = vec[s_new - 1].frac.coefficient
            engine.add([coeff(r_new - 1 + cc) for cc in range(1, j_found + 1)])
            if i - engine.rank == ell:
                i_found = i
                break
        trace.stages.append(Stage(m, i_found, j_found, StageStatus.FOUND,
                                  scan_width=j_found))
        cur_i = i_found
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
