"""Numerical verification of approximation quality, in exact arithmetic.

The central quantity for a target pair (theta, gamma) is

    inf over nonzero N of  max_s  q^{g^s(deg N)} * |<N theta^s - gamma^s>|

taken here over all N up to a degree bound, which yields an upper bound on
the true infimum (and equals it once the attained minimum is stable).  All
values are exact powers of q handled as QVal exponents; the only concession
to finite data is a per-coordinate scan cap, and the report says whether
any candidate had to be excluded because its difference stream vanished
beyond what the inputs could certify.  An exact zero is certified by a
scan to series.recurrence_bound, the degree of a common denominator of
theta^s and gamma^s (rational, periodic or mixed).

The minimum is found by linear algebra, not by enumerating the
q^h (q - 1) candidates of each degree h: a degree-h N matches the first k
digits of gamma exactly when M[k, h+1] n = pi_k(gamma) has a solution with
n_h != 0.  Per degree a target exponent descends while one echelon of
these rows stays solvable; the witness is the least point of the last
affine solution set, and skipped candidates are counted exactly by
inclusion-exclusion over such sets.  The enumeration it replaced lives on
as the test oracle tests/oracles.odometer_scan.  Every constant is one such
scan under one weight, after one check of gamma against theta (_constant);
compare_weighted_constants runs it once per weight.

Only fractional parts matter throughout: N times the polynomial part of
theta is itself a polynomial and drops out of <.>, as does gamma's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InsufficientPrecisionError
from .field import Field
from .hankel import HankelView, default_weight, square_invertibility_spectrum
from .linalg import _Basis, nullspace, solve
from .polynomial import Poly
from .qval import QVal, ZERO, qexp
from .series import (LaurentSeries, as_vector, poly_times_series_frac,
                     recurrence_bound, rule_source)
from .weights import GeneralizedWeight

__all__ = ["DepthBoundedConstant", "c_depth", "c_depth_weighted",
           "c_liminf_depth", "merge_reports",
           "MatrixConditionReport", "matrix_condition_check",
           "WitnessReport", "find_witness_small",
           "M0Report", "m0_structure", "alternation_pairs",
           "LiminfReport", "liminf_structure", "make_liminf_theta",
           "ComparisonReport", "compare_weighted_constants",
           "compare_constants"]

DEFAULT_UNCERTIFIED_SCAN = 64


# ---------------------------------------------------------------------------
# Scan contexts
# ---------------------------------------------------------------------------

@dataclass
class _Coord:
    """Per-coordinate scan data: prefetched tail codes for theta and gamma,
    the scan cap, and whether an all-zero scan certifies an exact zero."""

    th: bytes
    gam: bytes
    cap: int
    certified: bool


def _target(vec: tuple[LaurentSeries, ...], gamma) -> tuple[LaurentSeries, ...]:
    """gamma as a vector with theta's coordinate count and field."""
    gvec = as_vector(gamma)
    if len(gvec) != len(vec):
        raise ValueError(f"target has {len(gvec)} coordinates, expected {len(vec)}")
    if gvec[0].field != vec[0].field:
        raise ValueError("theta and gamma live over different fields")
    return gvec


def _coord_contexts(vec: tuple[LaurentSeries, ...],
                    gvec: tuple[LaurentSeries, ...],
                    max_deg: int, prec: int | None) -> list[_Coord]:
    if max_deg < 0:
        raise ValueError(f"degree bound {max_deg} must be nonnegative")
    out: list[_Coord] = []
    for s, (th_s, gm_s) in enumerate(zip(vec, gvec)):
        zero_width = recurrence_bound((th_s, gm_s))     # 0 for two zero tails
        target = max(zero_width, 1) if zero_width is not None \
            else (prec if prec is not None else DEFAULT_UNCERTIFIED_SCAN)
        if prec is not None:
            target = min(target, prec)
        cap = target
        if th_s.guarantee is not None:
            cap = min(cap, th_s.guarantee - max_deg)
        if gm_s.guarantee is not None:
            cap = min(cap, gm_s.guarantee)
        if cap < 1:
            raise InsufficientPrecisionError(
                needed=max_deg + 1,
                have=th_s.guarantee if th_s.guarantee is not None
                else gm_s.guarantee,
                detail=f"coordinate {s}: cannot scan even one tail "
                       f"coefficient at degree bound {max_deg}")
        out.append(_Coord(th=th_s.frac_bytes(cap + max_deg),
                          gam=gm_s.frac_bytes(cap),
                          cap=cap,
                          certified=(zero_width is not None
                                     and cap >= zero_width)))
    return out


# ---------------------------------------------------------------------------
# Constant evaluation
# ---------------------------------------------------------------------------

@dataclass
class DepthBoundedConstant:
    """Minimum of the weighted quantity over the enumerated degree range.

    value is None when every candidate had to be excluded.  When skipped is
    nonzero the value is an upper bound for the range minimum only; exact
    inputs (declared periodic or rational tails) never skip."""

    value: QVal | None
    witness: Poly | None
    witness_depths: tuple[int, ...] | None
    deg_lo: int
    deg_hi: int
    scan_caps: tuple[int, ...]
    precision_limited: bool
    skipped: int
    zero_witness: bool

    @property
    def depth(self) -> int:
        return self.deg_hi

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json() if self.value is not None else None,
            "witness": list(self.witness.coeffs) if self.witness else None,
            "witness_depths": list(self.witness_depths)
            if self.witness_depths else None,
            "deg_lo": self.deg_lo,
            "deg_hi": self.deg_hi,
            "scan_caps": list(self.scan_caps),
            "precision_limited": self.precision_limited,
            "skipped": self.skipped,
            "zero_witness": self.zero_witness,
        }


class _Prefix:
    """The degree-h candidates N = n_0 + ... + n_h t^h whose products
    N theta^s match the first kappa[s] tail digits of gamma^s in every
    coordinate s: the solutions of M[kappa, h+1] n = pi_kappa(gamma), an
    affine set.  Row i of coordinate s is theta^s_{i+1..i+h+1} (byte k
    holds the coefficient of n_k) tagged with gamma^s_{i+1}, and the rows
    form one lowest-pivot echelon, so a pivot k fixes n_k from the more
    significant variables.  floor holds the least kappa the set is ever
    grown to."""

    def __init__(self, field: Field, ctxs: list[_Coord], h: int, floor):
        self.basis = _Basis(field, h + 1)
        self.ctxs, self.h, self.floor = ctxs, h, floor
        self.kappa = [0] * len(ctxs)
        self.ok = True                  # no row was inconsistent
        self.grow(floor)

    def grow(self, kappa, stop_at_full: bool = False) -> None:
        """Add rows up to kappa (at least the floor); stop_at_full stops
        once a single candidate is left, leaving later rows unchecked."""
        b, h = self.basis, self.h
        for s, ctx in enumerate(self.ctxs):
            for i in range(self.kappa[s], max(kappa[s], self.floor[s])):
                if not self.ok or (stop_at_full and b.rank > h):
                    return
                p, v = b.insert(int.from_bytes(ctx.th[i:i + h + 1] + ctx.gam[i:i + 1],
                                               "little"))
                self.ok = p >= 0 or not v >> (8 * h + 8)
                self.kappa[s] = i + 1

    def count(self) -> int:
        """Points with n_h != 0: q^f for f free variables, times (q-1)/q
        when n_h is free, or 0 when n_h is forced to 0."""
        if not self.ok:
            return 0
        q, h = self.basis._field.q, self.h
        free = h + 1 - self.basis.rank
        top = self.basis._pivots.get(h)
        if top is None:
            return q ** (free - 1) * (q - 1)
        return q ** free if top >> (8 * h + 8) else 0


def _prefix_sets(field: Field, ctxs: list[_Coord], h: int, exp) -> list:
    """Signed prefix sets whose signed counts add up to the degree-h
    candidates that are not skipped: first (1, all candidates), then, per
    nonempty set U of uncertified coordinates, the candidates matching U
    to the cap whose other terms stay below U's ceiling, less (by
    inclusion-exclusion over W) those also matching other uncertified
    coordinates W to the cap.  The latter are exactly the skipped
    candidates, counted with a minus sign."""
    d = len(ctxs)
    unc = [s for s, c in enumerate(ctxs) if not c.certified]
    sets = [(1, _Prefix(field, ctxs, h, (0,) * d))]
    for u_mask in range(1, 1 << len(unc)):
        in_u = {s for b, s in enumerate(unc) if u_mask >> b & 1}
        ceiling = max(exp[s] - ctxs[s].cap - 1 for s in in_u)
        rest = [s for s in unc if s not in in_u]
        for w_mask in range(1 << len(rest)):
            in_w = {s for b, s in enumerate(rest) if w_mask >> b & 1}
            floor = tuple(c.cap if s in in_u or s in in_w
                          else min(c.cap, max(0, math.floor(exp[s] - ceiling)))
                          for s, c in enumerate(ctxs))
            sets.append(((-1) ** (len(in_w) + 1), _Prefix(field, ctxs, h, floor)))
    return sets


def _least_point(field: Field, h: int, sets) -> list[int]:
    """The lexicographically least (n_h, ..., n_0), n_h != 0, in the signed
    union of the sets: digits are fixed from n_h down, each to the least
    code that leaves a positive signed count (n_0 first in the result)."""
    q = field.q
    n = [0] * (h + 1)
    live = [(sign, p) for sign, p in sets if p.ok]
    for k in range(h, -1, -1):
        opts = [(sign, p, p.basis.forced(k, n),
                 q ** (k - sum(j < k for j in p.basis._pivots))) for sign, p in live]
        n[k] = next(c for c in range(1 if k == h else 0, q)
                    if sum(sign * size for sign, _, f, size in opts
                           if f is None or f == c) > 0)
        live = [(sign, p) for sign, p, f, _ in opts if f is None or f == n[k]]
    return n


def _depths(field: Field, ctxs: list[_Coord], n: list[int]) -> tuple[int, ...]:
    """Per coordinate the first tail digit (1-based) where N theta^s and
    gamma^s differ within the cap, 0 when none does."""
    ops = _Basis(field)
    out = []
    for ctx in ctxs:
        diff = int.from_bytes(ctx.gam, "little")
        for k, c in enumerate(n):
            if c:
                diff = ops.sub_multiple(diff, int.from_bytes(ctx.th[k:k + ctx.cap], "little"), c)
        out.append(((diff & -diff).bit_length() + 7) >> 3)
    return tuple(out)


def _value(ctxs: list[_Coord], exp, depths):
    """A candidate's exponent from its depths: None when it is skipped
    (its uncertified coordinates match to the cap and could still decide
    the maximum), ZERO when every coordinate is certified and matches."""
    terms = [e - dep for e, dep in zip(exp, depths) if dep]
    ceilings = [e - c.cap - 1 for e, c, dep in zip(exp, ctxs, depths)
                if not dep and not c.certified]
    if ceilings and (not terms or max(terms) < max(ceilings)):
        return None
    return max(terms) if terms else ZERO


def _below(ctxs: list[_Coord], exp, t):
    """The largest attainable exponent e_s - m (1 <= m <= cap_s) below t,
    None when there is none."""
    return max((e - m for e, c in zip(exp, ctxs)
                for m in (max(1, math.floor(e - t) + 1),) if m <= c.cap), default=None)


def _descend(field: Field, ctxs: list[_Coord], h: int, exp, bound, sets):
    """The least exponent below bound (None: no bound) of a degree-h
    candidate that is not skipped, as (exponent, digits, depths) for the
    lexicographically least such candidate; the exponent is ZERO for a
    certified exact zero.  None when no candidate gets below bound.

    The target t descends through the attainable exponents.  At t every
    coordinate must match its first ceil(e_s - 1 - t) digits, clipped at
    its cap, so each step only adds rows.  The first t without a
    candidate ends the descent; the previous t is the minimum.  Once
    n_0..n_h are all fixed a single candidate is left, and its own depths
    decide instead of the remaining rows.  A target below every
    attainable exponent (None) asks for a match to every cap."""
    t = max(e - 1 for e in exp) if bound is None else _below(ctxs, exp, bound)
    main = sets[0][1]
    last = None
    while True:
        kappa = [c.cap if t is None else min(c.cap, max(0, math.ceil(e - 1 - t)))
                 for e, c in zip(exp, ctxs)]
        saved = [(list(p.kappa), p.ok, p.basis.rank) for _, p in sets]
        for _, p in sets:
            p.grow(kappa, stop_at_full=p is main)
        if main.basis.rank > h:
            if main.count():
                n = _least_point(field, h, [(1, main)])
                depths = _depths(field, ctxs, n)
                e = _value(ctxs, exp, depths)
                if e is ZERO or (e is not None and t is not None and e <= t):
                    return e, n, depths
        elif sum(sign * p.count() for sign, p in sets) > 0:
            if t is None:
                n = _least_point(field, h, sets)
                return ZERO, n, _depths(field, ctxs, n)
            last, t = t, _below(ctxs, exp, t)
            continue
        for (_, p), (kappa, ok, rank) in zip(sets, saved):
            p.kappa, p.ok = kappa, ok
            p.basis.truncate(rank)
        break
    if last is None:
        return None
    n = _least_point(field, h, sets)
    return last, n, _depths(field, ctxs, n)


def _scan_range(field: Field, contexts: list[_Coord],
                deg_lo: int, deg_hi: int, exponents) -> tuple:
    """Search core, by linear algebra over each degree.

    exponents(h) must return the per-coordinate weight exponents at
    degree h.  Returns (best_exponent, best_digits, best_depths, skipped);
    for a certified zero witness best_exponent is ZERO, with no depths and
    nothing skipped.  Ties keep the lower degree, then the
    lexicographically least (n_h, ..., n_0): the first minimiser in the
    order of the enumeration this replaces (tests/oracles.odometer_scan)."""
    best = best_digits = best_depths = None
    skipped = 0
    for h in range(deg_lo, deg_hi + 1):
        exp = exponents(h)
        sets = _prefix_sets(field, contexts, h, exp)
        skipped -= sum(sign * p.count() for sign, p in sets[1:])
        found = _descend(field, contexts, h, exp, best, sets)
        if found is None:
            continue
        if found[0] is ZERO:
            return ZERO, tuple(found[1]), None, 0
        best, best_digits, best_depths = found[0], tuple(found[1]), found[2]
    return best, best_digits, best_depths, skipped


def _qval(e) -> QVal | None:
    """A scan exponent as a value: ZERO and None pass through."""
    return qexp(e) if e is not None and e is not ZERO else e


def _constant(vec: tuple[LaurentSeries, ...], gamma, exponents, max_deg: int,
              prec: int | None, deg_lo: int) -> DepthBoundedConstant:
    """The scan behind every exact constant: gamma is checked against
    theta, then degrees deg_lo..max_deg are scanned under the weight
    exponents(h)."""
    field = vec[0].field
    contexts = _coord_contexts(vec, _target(vec, gamma), max_deg, prec)
    if not 0 <= deg_lo <= max_deg:
        raise ValueError(f"degree window {deg_lo}..{max_deg} is empty or negative")
    best, digits, depths, skipped = _scan_range(field, contexts, deg_lo,
                                                max_deg, exponents)
    return DepthBoundedConstant(
        value=_qval(best), witness=Poly(field, digits) if digits else None,
        witness_depths=depths, deg_lo=deg_lo, deg_hi=max_deg,
        scan_caps=tuple(c.cap for c in contexts),
        precision_limited=skipped > 0, skipped=skipped, zero_witness=best is ZERO)


def c_depth_weighted(theta, gamma, weight: GeneralizedWeight | None = None,
                     max_deg: int = 0, prec: int | None = None,
                     deg_lo: int = 0) -> DepthBoundedConstant:
    """Exact minimum of max_s q^{g^s(deg N)} |<N theta^s - gamma^s>| over
    nonzero N with deg_lo <= deg N <= max_deg."""
    vec = as_vector(theta)
    return _constant(vec, gamma, default_weight(vec, weight).eval, max_deg,
                     prec, deg_lo)


def c_depth(theta: LaurentSeries, gamma: LaurentSeries, max_deg: int,
            prec: int | None = None) -> DepthBoundedConstant:
    """One-dimensional convenience: minimum of |N| |<N theta - gamma>|."""
    return c_depth_weighted(theta, gamma, None, max_deg, prec=prec)


def c_liminf_depth(theta, gamma, deg_lo: int, deg_hi: int,
                   prec: int | None = None,
                   weight: GeneralizedWeight | None = None) -> QVal | None:
    """Minimum of the weighted quantity restricted to the degree window
    deg_lo <= deg N <= deg_hi, as a bare value.

    Windowed minima reveal subsequence behaviour: a target with small
    liminf but large limsup has windows of both kinds.  None means every
    candidate in the window was precision-excluded."""
    return c_depth_weighted(theta, gamma, weight, deg_hi, prec=prec,
                            deg_lo=deg_lo).value


def merge_reports(*reports: DepthBoundedConstant) -> DepthBoundedConstant:
    """Combine disjoint degree-window reports into one.

    The minimum of a union of windows is the minimum of the window minima,
    so sharded scans merge without re-enumeration.  The windows must tile
    a contiguous degree range; a gap would let the merged report claim
    coverage nothing ever scanned."""
    if not reports:
        raise ValueError("nothing to merge")
    parts = sorted(reports, key=lambda r: r.deg_lo)
    for prev, nxt in zip(parts, parts[1:]):
        if nxt.deg_lo != prev.deg_hi + 1:
            raise ValueError(
                f"degree windows [{prev.deg_lo},{prev.deg_hi}] and "
                f"[{nxt.deg_lo},{nxt.deg_hi}] do not tile contiguously")
    best = min((r for r in parts if r.value is not None), key=lambda r: r.value,
               default=None)
    return DepthBoundedConstant(
        value=best.value if best else None,
        witness=best.witness if best else None,
        witness_depths=best.witness_depths if best else None,
        deg_lo=min(r.deg_lo for r in parts),
        deg_hi=max(r.deg_hi for r in parts),
        scan_caps=parts[0].scan_caps,
        precision_limited=any(r.precision_limited for r in parts),
        skipped=sum(r.skipped for r in parts),
        zero_witness=best.zero_witness if best else False)


# ---------------------------------------------------------------------------
# Matrix condition
# ---------------------------------------------------------------------------

class MatrixConditionReport(NamedTuple):
    series_route: bool
    matrix_route: bool

    @property
    def agree(self) -> bool:
        return self.series_route == self.matrix_route


def matrix_condition_check(theta, gamma,
                           weight: GeneralizedWeight | None = None,
                           n: Poly | None = None,
                           ell: int = 0) -> MatrixConditionReport:
    """Two independent routes to the same smallness condition, with
    h = deg N.

    Series route: for every coordinate the first g^s(h+1+ell) tail
    coefficients of N theta^s agree with gamma^s, i.e.
    max_s q^{g^s(h+1+ell)} |<N theta^s - gamma^s>| < 1.

    Matrix route: the stacked matrix with row extent h+1+ell and h+1
    columns sends N's coefficient vector to the digit projection of gamma.
    """
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    gvec = _target(vec, gamma)
    if n is None or n.is_zero:
        raise ValueError("the condition is about nonzero denominators N")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    h = n.deg
    big = h + 1 + ell
    g_big = w.eval(big)
    series_ok = all(poly_times_series_frac(n, vec[s], need) == gvec[s].frac_coeffs(need)
                    for s, need in enumerate(g_big) if need)
    rows = HankelView.of(vec, w, big, h + 1).stacked_rows()
    field = vec[0].field
    nvec = [n.coefficient(k) for k in range(h + 1)]
    pi = [c for s, need in enumerate(g_big) for c in gvec[s].frac_coeffs(need)]
    matrix_ok = all(field.dot(row, nvec) == p for row, p in zip(rows, pi))
    return MatrixConditionReport(series_ok, matrix_ok)


# ---------------------------------------------------------------------------
# Small witnesses
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    found: bool
    witness: Poly | None
    rows: int                       # depth whose digits the witness matches
    bound: QVal | None              # guaranteed: value <= q^{deg N - rows - 1}
    value: QVal | None              # evaluated value, when measurable
    value_is_exact: bool


def find_witness_small(theta: LaurentSeries, gamma: LaurentSeries,
                       max_m: int = 4) -> WitnessReport:
    """Search square systems for a nonzero N matching gamma's first j tail
    digits; such an N satisfies |N| |<N theta - gamma>| <= q^{deg N - j - 1}.

    For any theta whose first tail coefficient vanishes and second does
    not, the search succeeds by j = 2 with a bound of at most q^{-2}:
    either gamma's first digit is zero (then N = 1 already matches depth
    one) or the 2 x 2 system is unconditionally solvable."""
    vec = as_vector(theta)
    w = default_weight(vec, None)
    gvec = _target(vec, gamma)
    field = vec[0].field
    for j in range(1, max_m + 1):
        rows = HankelView.of(vec, w, j, j).stacked_rows()
        rhs = list(gvec[0].frac_coeffs(j))
        if any(rhs):
            sol = solve(field, rows, rhs)
            if sol is None or not any(sol):
                continue
        else:
            basis = nullspace(field, rows, j)
            if not basis:
                continue
            sol = list(basis[0])
        top = max(k for k, c in enumerate(sol) if c)
        witness = Poly(field, sol[: top + 1])
        bound = qexp(witness.deg - j - 1)
        try:
            ctx = _coord_contexts(vec, gvec, witness.deg, None)
            e = _value(ctx, (witness.deg,), _depths(field, ctx, list(witness.coeffs)))
        except InsufficientPrecisionError:
            e = None
        value, exact = _qval(e), e is not None
        return WitnessReport(True, witness, j, bound, value, exact)
    return WitnessReport(False, None, 0, None, None, False)


# ---------------------------------------------------------------------------
# Invertibility spectra
# ---------------------------------------------------------------------------

def alternation_pairs(spectrum: list[bool]) -> list[tuple[int, int]]:
    """Disjoint (singular size, later invertible size) pairs, greedily from
    the left.  Each pair witnesses that invertibility is not monotone."""
    pairs: list[tuple[int, int]] = []
    m = 0
    while m < len(spectrum):
        if not spectrum[m]:
            for m2 in range(m + 1, len(spectrum)):
                if spectrum[m2]:
                    pairs.append((m + 1, m2 + 1))
                    m = m2
                    break
            else:
                break
        m += 1
    return pairs


@dataclass
class M0Report:
    """First-singular-size structure of the square matrix spectrum.

    m0 is the first singular size, None when every size up to depth is
    invertible.  pattern_consistent says whether the spectrum is monotone
    (singular once, singular forever, the pattern behind a single scaling
    exponent); the first counterexample pair (singular size, later
    invertible size) is recorded as violation."""

    spectrum: list[bool]            # entry m-1 holds the m x m verdict
    m0: int | None                  # first singular size; None = all invertible
    depth: int                      # sizes checked: 1..depth
    pattern_consistent: bool
    violation: tuple[int, int] | None
    alternations: list[tuple[int, int]]

    def to_json(self) -> dict:
        return {"spectrum": self.spectrum, "m0": self.m0,
                "depth": self.depth,
                "pattern_consistent": self.pattern_consistent,
                "violation": list(self.violation) if self.violation else None,
                "alternations": [list(p) for p in self.alternations]}


def m0_structure(theta, max_m: int,
                 weight: GeneralizedWeight | None = None) -> M0Report:
    """Invertibility of the square stacked matrices up to size max_m."""
    spectrum = square_invertibility_spectrum(theta, max_m, weight)
    m0 = next((m for m, ok in enumerate(spectrum, start=1) if not ok), None)
    alternations = alternation_pairs(spectrum)
    return M0Report(spectrum=spectrum, m0=m0, depth=max_m,
                    pattern_consistent=not alternations,
                    violation=alternations[0] if alternations else None,
                    alternations=alternations)


@dataclass
class LiminfReport:
    """Alternation structure of the spectrum: how often invertibility is
    lost and regained up to the checked depth."""

    spectrum: list[bool]
    alternations: list[tuple[int, int]]
    count: int
    meets_k: bool

    def to_json(self) -> dict:
        return {"spectrum": self.spectrum,
                "alternations": [list(p) for p in self.alternations],
                "count": self.count, "meets_k": self.meets_k}


def liminf_structure(theta, max_m: int, k: int,
                     weight: GeneralizedWeight | None = None) -> LiminfReport:
    """Count disjoint singular-then-invertible pairs up to size max_m and
    check there are at least k of them.

    Many alternations mean the one-sided smallness bound keeps switching
    on and off along the sizes: the hallmark of targets whose quality is
    attained only along a subsequence."""
    spectrum = square_invertibility_spectrum(theta, max_m, weight)
    pairs = alternation_pairs(spectrum)
    return LiminfReport(spectrum=spectrum, alternations=pairs,
                        count=len(pairs), meets_k=len(pairs) >= k)


def make_liminf_theta(field: Field) -> LaurentSeries:
    """The canonical series whose tail is 1 exactly at depths 2, 6, 14,
    30, ... (each two less than a power of two), used to exhibit targets
    whose quality bound holds only along a subsequence."""
    return LaurentSeries(field, Poly.zero(field), rule_source("liminf"))


# ---------------------------------------------------------------------------
# Real weights against induced integer weights
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    real_exponent: Fraction | None
    induced_exponent: int | None
    difference: Fraction | None
    bound: int
    within_bound: bool
    skipped: int
    zero_witness: bool = False

    @property
    def real_value(self) -> QVal | None:
        return ZERO if self.zero_witness else _qval(self.real_exponent)

    @property
    def induced_value(self) -> QVal | None:
        return ZERO if self.zero_witness else _qval(self.induced_exponent)

    def to_json(self) -> dict:
        return {
            "real_exponent": [self.real_exponent.numerator,
                              self.real_exponent.denominator]
            if self.real_exponent is not None else None,
            "induced_exponent": self.induced_exponent,
            "difference": [self.difference.numerator,
                           self.difference.denominator]
            if self.difference is not None else None,
            "bound": self.bound,
            "within_bound": self.within_bound,
            "skipped": self.skipped,
            "zero_witness": self.zero_witness,
        }


def compare_weighted_constants(theta, gamma, r, max_deg: int,
                               prec: int | None = None) -> ComparisonReport:
    """The real-weight quantity (exponent r^s h) against the induced
    integer-weight quantity (exponent g_r^s(h)), one scan each.

    Per candidate the two exponent vectors differ by less than 1 in every
    coordinate (the rounding deviation), so the two minima differ by less
    than d in the q-logarithm; the report checks that.  A zero witness
    does not depend on the weight, so it ends the comparison after the
    real scan."""
    vec = as_vector(theta)
    w = GeneralizedWeight.from_real(r)
    if w.d != len(vec):
        raise ValueError(f"weight has {w.d} coordinates, theta {len(vec)}")
    real = _constant(vec, gamma, lambda h: tuple(rs * h for rs in w.real),
                     max_deg, prec, 0)
    if real.zero_witness:
        return ComparisonReport(None, None, Fraction(0), w.d, True, 0,
                                zero_witness=True)
    induced = _constant(vec, gamma, w.eval, max_deg, prec, 0).value
    real_e = Fraction(real.value.exponent) if real.value is not None else None
    ind_e = induced.exponent if induced is not None else None
    if real_e is None or ind_e is None:
        return ComparisonReport(real_e, ind_e, None, w.d, False, real.skipped)
    diff = abs(real_e - ind_e)
    return ComparisonReport(real_e, ind_e, diff, w.d, diff < w.d, real.skipped)


def compare_constants(theta, gamma, r, max_deg: int, prec: int | None = None):
    """Depth-limited approximation constants under a real weight r and its
    induced integer weight, returned as a (real-exponent, integer-exponent)
    QVal pair.  Their log-q exponents differ by less than d."""
    report = compare_weighted_constants(theta, gamma, r, max_deg, prec)
    return report.real_value, report.induced_value
