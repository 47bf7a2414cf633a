"""Numerical verification of approximation quality, in exact arithmetic.

The central quantity for a target pair (theta, gamma) is

    inf over nonzero N of  max_s  q^{g^s(deg N)} * |<N theta^s - gamma^s>|

taken here over all N up to a degree bound, which yields an upper bound on
the true infimum (and equals it once the attained minimum is stable).  All
values are exact powers of q handled as QVal exponents; the only concession
to finite data is a per-coordinate scan cap, and the report says whether
any candidate had to be excluded because its difference stream vanished
beyond what the inputs could certify.

Only fractional parts matter throughout: N times the polynomial part of
theta is itself a polynomial and drops out of <.>, as does gamma's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InsufficientPrecisionError
from .field import Field
from .hankel import HankelView, default_weight, square_invertibility_spectrum
from .linalg import nullspace, solve
from .polynomial import Poly
from .qval import QVal, ZERO, qexp
from .series import (LaurentSeries, as_vector, period_bound,
                     poly_times_series_frac, rule_source)
from .weights import GeneralizedWeight

__all__ = ["DepthBoundedConstant", "c_depth", "c_depth_weighted",
           "c_liminf_depth", "merge_reports",
           "MatrixConditionReport", "matrix_condition_check",
           "WitnessReport", "find_witness_small",
           "M0Report", "m0_structure", "alternation_pairs",
           "LiminfReport", "liminf_structure", "make_liminf_theta",
           "ComparisonReport", "compare_weighted_constants"]

DEFAULT_UNCERTIFIED_SCAN = 64


# ---------------------------------------------------------------------------
# Scan contexts
# ---------------------------------------------------------------------------

@dataclass
class _Coord:
    """Per-coordinate scan data: prefetched tail codes for theta and gamma,
    the scan cap, and whether an all-zero scan certifies an exact zero."""

    th: list[int]
    gam: list[int]
    cap: int
    certified: bool


def _coord_contexts(vec: tuple[LaurentSeries, ...],
                    gvec: tuple[LaurentSeries, ...],
                    max_deg: int, prec: int | None) -> list[_Coord]:
    out: list[_Coord] = []
    for s, (th_s, gm_s) in enumerate(zip(vec, gvec)):
        zero_width = period_bound((th_s, gm_s))
        target = zero_width if zero_width is not None \
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
        out.append(_Coord(th=list(th_s.frac_coeffs(cap + max_deg)),
                          gam=list(gm_s.frac_coeffs(cap)),
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


def _scan_range(field: Field, contexts: list[_Coord],
                deg_lo: int, deg_hi: int, exponents) -> tuple:
    """Shared enumeration core.

    exponents(h) must return, per tracked variant, the per-coordinate
    weight exponents at degree h.  Returns per variant
    (best_exponent, best_digits, best_depths) plus the skip count and a
    zero witness if one was certified."""
    q = field.q
    d = len(contexts)
    add = field._add
    mul = field._mul
    sub = field.sub
    n_var = len(exponents(0))
    best = [None] * n_var
    best_digits: list[tuple[int, ...] | None] = [None] * n_var
    best_depths: list[tuple[int, ...] | None] = [None] * n_var
    skipped = 0
    zero_digits = None
    for h in range(deg_lo, deg_hi + 1):
        exps = exponents(h)
        digits = [0] * (h + 1)
        digits[h] = 1
        tails = []
        for ctx in contexts:
            th = ctx.th
            tails.append([th[i + h] for i in range(ctx.cap)])
        while True:
            depths: list[int] = []     # first mismatch, 0 = none found
            uncertain_ceil = []        # per-variant ceilings
            ok = True
            for s in range(d):
                ctx = contexts[s]
                L = tails[s]
                gam = ctx.gam
                i0 = 0
                for i in range(ctx.cap):
                    if L[i] != gam[i]:
                        i0 = i + 1
                        break
                depths.append(i0)
                if i0 == 0 and not ctx.certified:
                    uncertain_ceil.append(s)
            for v in range(n_var):
                exp_v = exps[v]
                terms = [exp_v[s] - depths[s] for s in range(d) if depths[s]]
                if uncertain_ceil:
                    ceil = max(exp_v[s] - contexts[s].cap - 1
                               for s in uncertain_ceil)
                    if not terms or max(terms) < ceil:
                        if v == 0:
                            skipped += 1
                        continue
                if not terms:
                    # every coordinate certifies an exact zero
                    zero_digits = tuple(digits)
                    break
                e = max(terms)
                if best[v] is None or e < best[v]:
                    best[v] = e
                    best_digits[v] = tuple(digits)
                    best_depths[v] = tuple(depths)
            if zero_digits is not None:
                return best, best_digits, best_depths, skipped, zero_digits
            # odometer increment with incremental tail updates
            k = 0
            while k <= h:
                old = digits[k]
                lo = 1 if k == h else 0
                nxt = old + 1
                if nxt >= q:
                    if k == h:
                        k += 1
                        break
                    digits[k] = lo
                    delta = sub(lo, old)
                else:
                    digits[k] = nxt
                    delta = sub(nxt, old)
                for s in range(d):
                    th = contexts[s].th
                    L = tails[s]
                    row = mul[delta]
                    for i in range(contexts[s].cap):
                        c = th[i + k]
                        if c:
                            L[i] = add[L[i]][row[c]]
                if nxt < q:
                    break
                k += 1
            if k > h:
                break
    return best, best_digits, best_depths, skipped, None


def c_depth_weighted(theta, gamma, weight: GeneralizedWeight | None = None,
                     max_deg: int = 0, prec: int | None = None,
                     deg_lo: int = 0) -> DepthBoundedConstant:
    """Exact minimum of max_s q^{g^s(deg N)} |<N theta^s - gamma^s>| over
    nonzero N with deg_lo <= deg N <= max_deg."""
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    gvec = as_vector(gamma)
    if len(gvec) != w.d:
        raise ValueError(f"target has {len(gvec)} coordinates, expected {w.d}")
    field = vec[0].field
    if gvec[0].field.q != field.q:
        raise ValueError("theta and gamma live over different fields")
    contexts = _coord_contexts(vec, gvec, max_deg, prec)

    def exponents(h: int):
        return (w.eval(h),)

    best, bd, bdep, skipped, zero_digits = _scan_range(
        field, contexts, deg_lo, max_deg, exponents)
    caps = tuple(c.cap for c in contexts)
    if zero_digits is not None:
        return DepthBoundedConstant(value=ZERO,
                                    witness=Poly(field, zero_digits),
                                    witness_depths=None, deg_lo=deg_lo,
                                    deg_hi=max_deg, scan_caps=caps,
                                    precision_limited=False, skipped=0,
                                    zero_witness=True)
    value = qexp(best[0]) if best[0] is not None else None
    return DepthBoundedConstant(value=value,
                                witness=Poly(field, bd[0]) if bd[0] else None,
                                witness_depths=bdep[0], deg_lo=deg_lo,
                                deg_hi=max_deg, scan_caps=caps,
                                precision_limited=skipped > 0, skipped=skipped,
                                zero_witness=False)


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
    report = c_depth_weighted(theta, gamma, weight, deg_hi, prec=prec,
                              deg_lo=deg_lo)
    return report.value


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
    best = None
    for r in parts:
        if r.value is None:
            continue
        if best is None or r.value < best.value:
            best = r
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
    gvec = as_vector(gamma)
    if n is None or n.is_zero:
        raise ValueError("the condition is about nonzero denominators N")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    h = n.deg
    big = h + 1 + ell
    g_big = w.eval(big)
    series_ok = True
    for s in range(w.d):
        need = g_big[s]
        if need == 0:
            continue
        left = poly_times_series_frac(n, vec[s], need)
        right = gvec[s].frac_coeffs(need)
        if left != right:
            series_ok = False
            break
    view = HankelView.of(vec, w, big, h + 1)
    rows = view.stacked_rows()
    field = vec[0].field
    nvec = [n.coefficient(k) for k in range(h + 1)]
    pi: list[int] = []
    for s in range(w.d):
        pi.extend(gvec[s].frac_coeffs(g_big[s]))
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
    field = vec[0].field
    gam = gamma
    for j in range(1, max_m + 1):
        view = HankelView.of(vec, w, j, j)
        rows = view.stacked_rows()
        rhs = list(gam.frac_coeffs(j))
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
        value: QVal | None
        exact = False
        try:
            ctx = _coord_contexts(vec, (gam,), witness.deg, None)[0]
            tail = poly_times_series_frac(witness, vec[0], ctx.cap)
            i0 = 0
            for i in range(ctx.cap):
                if tail[i] != ctx.gam[i]:
                    i0 = i + 1
                    break
            if i0:
                value = qexp(witness.deg - i0)
                exact = True
            elif ctx.certified:
                value = ZERO
                exact = True
            else:
                value = None
        except InsufficientPrecisionError:
            value = None
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
    m0 = None
    for m, ok in enumerate(spectrum, start=1):
        if not ok:
            m0 = m
            break
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
        if self.zero_witness:
            return ZERO
        return qexp(self.real_exponent) if self.real_exponent is not None \
            else None

    @property
    def induced_value(self) -> QVal | None:
        if self.zero_witness:
            return ZERO
        return qexp(self.induced_exponent) \
            if self.induced_exponent is not None else None

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
    """One shared scan comparing the real-weight quantity (exponent r^s h)
    with the induced integer-weight quantity (exponent g_r^s(h)).

    Per candidate the two exponent vectors differ by less than 1 in every
    coordinate (the rounding deviation), so the two minima differ by less
    than d in the q-logarithm; the report checks that."""
    vec = as_vector(theta)
    gvec = as_vector(gamma)
    w = GeneralizedWeight.from_real(r)
    if w.d != len(vec):
        raise ValueError(f"weight has {w.d} coordinates, theta {len(vec)}")
    field = vec[0].field
    contexts = _coord_contexts(vec, gvec, max_deg, prec)
    rfracs = w.real

    def exponents(h: int):
        real = tuple(rs * h for rs in rfracs)
        induced = w.eval(h)
        return (real, induced)

    best, _bd, _bdep, skipped, zero_digits = _scan_range(
        field, contexts, 0, max_deg, exponents)
    if zero_digits is not None:
        return ComparisonReport(None, None, Fraction(0), w.d, True, 0,
                                zero_witness=True)
    real_e, ind_e = best
    if real_e is None or ind_e is None:
        return ComparisonReport(
            Fraction(real_e) if real_e is not None else None,
            ind_e, None, w.d, False, skipped)
    diff = abs(Fraction(real_e) - Fraction(ind_e))
    return ComparisonReport(Fraction(real_e), int(ind_e), diff, w.d,
                            diff < w.d, skipped)
