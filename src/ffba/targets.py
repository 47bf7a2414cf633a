"""Construction of badly approximable targets, with replayable certificates.

Each completed walk stage m (extent i_m, next threshold j_{m+1}) yields a
nonzero vector b_m annihilating every column of the i_m-row matrix below
j_{m+1}; any target digit vector with b_m . pi(gamma) != 0 then blocks all
small-denominator solutions at that extent.  b_m spans a kernel line read
off the walk's echelon (IndicesTrace.annihilators); a certificate's last
stage, whose kernel may be larger, runs hankel.left_null_vector; it and
the verifier stop at series.recurrence_bound columns, as ranks do.  The
construction fixes target digits stage by stage, always choosing inside
the allowed set (exactly q^{gap-1} of the q^{gap} extensions are excluded
per stage), and records everything needed for independent re-verification
in a Certificate.  The verifier trusts none of it: per stage, b . M = 0
(summed from packed rows) and b . pi(gamma) != 0 leave no covered system
solvable, with no elimination.  Extension counts are closed-form.

Policies: "lexmin" picks the lexicographically smallest valid extension
(unconstrained digits default to 0); a seeded policy draws uniformly from
the valid extensions and is reproducible from the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

from .cantor import ConstructionSchedule, CylinderSet, as_schedule
from .errors import (BudgetExhaustedError, CertificateFormatError,
                     InsufficientPrecisionError, TooLargeToEnumerateError)
from .field import Field
from .hankel import HankelView, default_weight, left_null_vector
from .indices import (DEFAULT_J_CUTOFF, MAX_J_CUTOFF, IndicesTrace, Stage,
                      StageStatus, indices_sequence)
from .linalg import _Basis, _byte_tables
from .series import (LaurentSeries, as_vector, period_bound, recurrence_bound,
                     series_from_json)
from .weights import GeneralizedWeight

__all__ = ["CertStage", "Certificate", "gamma_prefix",
           "verify_certificate", "CertificateReport", "extension_counts",
           "ExtensionCount", "survivor_cylinders", "schedule_from_certificate"]

ENUM_CAP = 1 << 16


# ---------------------------------------------------------------------------
# Certificate data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertStage:
    """One constraint stage.  i is the row extent; j_next the column
    threshold of the following stage (None when the walk ended here);
    width the largest column index the annihilation claim covers;
    b the annihilating vector in stacked order; new_digits the target
    digits fixed at this stage, per coordinate."""

    m: int
    i: int
    j_next: int | None
    status: str                     # found | infinite | cutoff
    width: int
    b: tuple[int, ...]
    new_digits: tuple[tuple[int, ...], ...]

    def to_json(self, flat: bool) -> dict:
        digits = list(self.new_digits[0]) if flat \
            else [list(d) for d in self.new_digits]
        return {"m": self.m, "i": self.i, "j": self.j_next,
                "status": self.status, "width": self.width,
                "b": list(self.b), "gamma_digits": digits}


@dataclass
class Certificate:
    field: Field
    d: int
    ell: int
    weight: GeneralizedWeight
    theta: tuple[LaurentSeries, ...]
    stages: list[CertStage]
    gamma_digits: tuple[tuple[int, ...], ...]
    truncated: bool
    policy: str                     # "lexmin" or "seeded-random:<n>"

    def stage_extents(self) -> list[int]:
        return [st.i for st in self.stages]

    def gamma_series(self) -> tuple[LaurentSeries, ...]:
        """The canonical target: fixed digits then zero tail, as declared
        exact series."""
        return tuple(LaurentSeries.from_frac_coeffs(self.field, digits, tail="zero")
                     for digits in self.gamma_digits)

    def gamma_stacked(self, i: int) -> list[int]:
        """pi_{g(i)}(gamma) in stacked order (digits beyond the fixed
        prefix are zero by the canonical extension)."""
        g = self.weight.eval(i)
        out: list[int] = []
        for s in range(self.d):
            digits = self.gamma_digits[s]
            for idx in range(g[s]):
                out.append(digits[idx] if idx < len(digits) else 0)
        return out

    def to_json(self) -> dict:
        flat = self.d == 1
        obj: dict = {"q": self.field.q}
        if self.field.k > 1:
            obj["modulus"] = list(self.field.modulus)
        obj.update({
            "d": self.d,
            "ell": self.ell,
            "weight": self.weight.to_json(),
            "theta": [t.to_json() for t in self.theta],
            "policy": self.policy,
            "stages": [st.to_json(flat) for st in self.stages],
            "gamma_prefix": list(self.gamma_digits[0]) if flat
            else [list(d) for d in self.gamma_digits],
            "truncated": self.truncated,
        })
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Parse a certificate document, checking the presence, type and
        range of every field; malformed input raises CertificateFormatError."""
        q, d = _need(obj, "q"), _need(obj, "d")
        try:
            field = Field.of_order(q, obj.get("modulus"))
            weight = GeneralizedWeight.from_json(_need(obj, "weight", dict))
            theta = tuple(series_from_json(t, field) for t in _need(obj, "theta", list))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise CertificateFormatError(f"malformed field, theta or weight: {exc!r}") from exc
        if not d == weight.d == len(theta):
            raise CertificateFormatError(f"d={d} disagrees with the weight or theta")

        def codes(x, what: str) -> tuple[int, ...]:
            if not isinstance(x, list) or not all(
                    type(c) is int and 0 <= c < field.q for c in x):
                raise CertificateFormatError(f"{what} must list codes in range({field.q})")
            return tuple(x)

        def per_coord(x, what: str) -> tuple[tuple[int, ...], ...]:
            if d == 1 and not any(isinstance(c, list) for c in x):
                x = [x]
            if len(x) != d:
                raise CertificateFormatError(f"{what} must hold {d} digit lists")
            return tuple(codes(c, what) for c in x)

        stages = [CertStage(m=_need(st, "m"), i=_need(st, "i", lo=0),
                            j_next=_need(st, "j", (int, type(None))),
                            status=_need(st, "status", str),
                            width=_need(st, "width", lo=0, hi=MAX_J_CUTOFF),
                            b=codes(_need(st, "b", list), "b"),
                            new_digits=per_coord(_need(st, "gamma_digits", list),
                                                 "gamma_digits"))
                  for st in _need(obj, "stages", list)]
        for st in stages:
            if st.status not in ("found", "infinite", "cutoff"):
                raise CertificateFormatError(f"unknown stage status {st.status!r}")
        return cls(field=field, d=d, ell=_need(obj, "ell"), weight=weight,
                   theta=theta, stages=stages,
                   gamma_digits=per_coord(_need(obj, "gamma_prefix", list),
                                          "gamma_prefix"),
                   truncated=_need(obj, "truncated", bool),
                   policy=_need(obj, "policy", str) if "policy" in obj else "lexmin")


def _need(doc, key: str, kind=int, lo: int | None = None, hi: int | None = None):
    """doc[key], which must be present, of the given type (a bool is no
    int) and within lo..hi where they are given."""
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateFormatError(f"certificate field {key!r} is missing")
    value = doc[key]
    wrong_type = not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
    if wrong_type or (lo is not None and value < lo) or (hi is not None and value > hi):
        raise CertificateFormatError(f"certificate field {key!r} is malformed")
    return value


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _split(field: Field, b, g_prev: tuple[int, ...], g_now: tuple[int, ...],
           digits) -> tuple[int, list[int]]:
    """Stage m's view of b (stacked at block heights g_now): b . pi(gamma)
    over the digits fixed at heights g_prev, and b's entries at the new
    rows g_prev..g_now, block by block."""
    fixed, b_new, off = 0, [], 0
    for s, h in enumerate(g_now):
        lo = min(g_prev[s], h)
        fixed = field.add(fixed, field.dot(b[off:off + lo], digits[s][:lo]))
        b_new.extend(b[off + lo:off + h])
        off += h
    return fixed, b_new


def _pick_extension(field: Field, fixed: int, b_new: list[int],
                    rng: random.Random | None) -> list[int]:
    """Digits u for the new rows with fixed + b_new . u != 0.

    Lexmin: if the fixed part already hits, all-zero u is minimal;
    otherwise a single 1 at the last new row where b is nonzero (zeros
    anywhere later contribute nothing, so this is minimal).
    """
    if not any(b_new):
        raise AssertionError("annihilator has no support on the new rows")
    if rng is None:
        u = [0] * len(b_new)
        if fixed == 0:
            u[max(k for k, c in enumerate(b_new) if c)] = 1
        return u
    while True:
        u = [rng.randrange(field.q) for _ in b_new]
        if field.add(fixed, field.dot(b_new, u)) != 0:
            return u


def gamma_prefix(theta, weight: GeneralizedWeight | None = None,
                 ell: int = 1, stage_budget: int = 8,
                 j_cutoff: int = DEFAULT_J_CUTOFF,
                 policy: str = "lexmin", seed: int | None = None,
                 trace: IndicesTrace | None = None) -> Certificate:
    """Fix a target digit prefix that blocks small-denominator solutions.

    Runs the rank walk (or reuses a supplied trace), derives one
    annihilating vector per completed stage, and extends the target digits
    so every stage constraint holds.  The certificate is marked truncated
    when data or budgets ended the walk before a permanent plateau."""
    vec = as_vector(theta)
    w = default_weight(vec, weight)
    field = vec[0].field
    if trace is None:
        trace = indices_sequence(vec, w, ell, stage_budget, j_cutoff)
    elif trace.ell != ell or trace.weight != w:
        raise ValueError("the supplied trace was walked under another ell or weight")
    elif any(m - 1 not in trace.annihilators
             for m, st in enumerate(trace.stages) if m and st.j is not None):
        # a trace without the walk's annihilators (built by hand, say)
        walked = indices_sequence(vec, trace.weight, trace.ell,
                                  trace.stage_budget, trace.j_cutoff)
        if walked.stages != trace.stages:
            raise ValueError("the supplied trace differs from the walk of theta")
        trace = walked
    recs: list[Stage] = trace.stages
    if len(recs) < 2:
        raise BudgetExhaustedError(
            "stage budget ended before the first constraint stage")
    if policy == "lexmin":
        if seed is not None:
            raise ValueError("the lexmin policy takes no seed")
        rng = None
    elif policy == "seeded-random":
        seed = 0 if seed is None else seed
        rng = random.Random(seed)
        policy = f"seeded-random:{seed}"
    else:
        raise ValueError(f"unknown digit policy {policy!r}")
    digits: list[list[int]] = [[] for _ in range(w.d)]
    stages: list[CertStage] = []
    truncated = False
    prev_i = 0
    for m in range(len(recs) - 1):
        cur = recs[m]
        nxt = recs[m + 1]
        if cur.i is None:
            break
        if nxt.j is not None:
            width, status = nxt.j - 1, "found"
        else:
            width = nxt.scan_width
            status = "infinite" if nxt.status is StageStatus.INFINITE_CERTIFIED else "cutoff"
        i_m = cur.i
        final = status != "found" or nxt.i is None or m == len(recs) - 2
        if final:   # its own elimination: a terminal kernel may exceed a line
            rec = recurrence_bound(vec)     # the same kernel: no rank grows past it
            b = left_null_vector(vec, w, i_m, width if rec is None else min(width, rec))
        else:
            b = _lexmin_of_line(field, w, trace.annihilators[m])
        assert b is not None, "rank below extent must leave an annihilator"
        g_now, g_prev = w.eval(i_m), w.eval(prev_i)
        fixed, b_new = _split(field, b, g_prev, g_now, digits)
        u = iter(_pick_extension(field, fixed, b_new, rng))
        new_digits = []
        for s in range(w.d):
            add = [next(u) for _ in range(g_prev[s], g_now[s])]
            digits[s].extend(add)
            new_digits.append(tuple(add))
        stages.append(CertStage(m=m, i=i_m, j_next=nxt.j, status=status,
                                width=width, b=b,
                                new_digits=tuple(new_digits)))
        prev_i = i_m
        if final:
            truncated = status == "cutoff" or nxt.i is None
            break
    if not stages:
        raise BudgetExhaustedError(
            "no constraint stage could be completed")
    return Certificate(field=field, d=w.d, ell=ell, weight=w, theta=vec,
                       stages=stages,
                       gamma_digits=tuple(tuple(ds) for ds in digits),
                       truncated=truncated, policy=policy)


def _lexmin_of_line(field: Field, w: GeneralizedWeight, walk_b: bytes) -> tuple[int, ...]:
    """The lex-least point of the line spanned by walk_b: walk_b in stacked
    order (a stable sort of the walk rows by block; walk order when d = 1),
    scaled to a leading 1 by one bytes.translate."""
    if w.d > 1:
        walk_b = bytes(walk_b[k] for k in sorted(range(len(walk_b)),
                                                 key=lambda k: w.assign(k + 1)))
    inv = field.inv(next(c for c in walk_b if c))
    return tuple(walk_b.translate(_byte_tables(field)[1][inv]))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """ok: every check passed.  bound_exponent: when ok, the proved bound
    c(theta, gamma) >= q^bound_exponent, -(1 + ell)."""

    ok: bool
    checks: list[tuple[str, bool, str]]
    bound_exponent: int | None = None

    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Re-verify a certificate from theta and the recorded data alone.

    For every stage and every covered column count j, the linear system
    M[i_m, j] n = pi(gamma) must have no solution.  The stage's own checks
    prove it, stage by stage and without elimination: b . M[i_m, width] = 0
    (annihilates) and b . pi(gamma) != 0 (digits_hit) rule out every
    j <= width, and no_solution fails naming the premise that does not
    hold.  Each stage also needs i_m <= j_m + ell (j_m the previous stage's
    j, 0 before the first), which is what makes c >= q^-(1+ell) follow; a
    certificate without stages fails.  Nothing from the construction run
    is trusted."""
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    vec = cert.theta
    w = cert.weight
    field = cert.field
    stages = cert.stages
    # b's length bounds i before the weight is evaluated at i, and widths
    # past MAX_J_CUTOFF or past theta's data are refused before any row is built
    heights = [w.eval(st.i) if len(st.b) == st.i else None for st in stages]
    past_data = [False] * len(stages)
    for k, (st, g) in enumerate(zip(stages, heights)):
        try:
            if g is not None:
                HankelView(vec, w, st.i, st.width).require_precision()
        except InsufficientPrecisionError:
            past_data[k] = True
    shaped = [g is not None and st.width <= MAX_J_CUTOFF and not past
              and all(len(cert.gamma_digits[s]) >= h for s, h in enumerate(g))
              for st, g, past in zip(stages, heights, past_data)]
    # b . M[i, width] = 0 iff b . M[i, min(width, rec)] = 0 (recurrence_bound);
    # each coordinate's tail as bytes, long enough for every shaped stage
    rec = recurrence_bound(vec)
    built = [st.width if rec is None else min(st.width, rec) for st in stages]
    tails = [src.frac_bytes(max((g[s] - 1 + c for c, g, ok
                                 in zip(built, heights, shaped) if ok and g[s]), default=0))
             for s, src in enumerate(vec)]
    prev_i = prev_j = prev_width = 0
    g_prev = w.eval(0)
    for st, cols, g_now, shape_ok, past in zip(stages, built, heights, shaped, past_data):
        tag = f"stage{st.m}"
        add(f"{tag}_b_nonzero", any(st.b), "")
        add(f"{tag}_i_step", st.i >= prev_i + cert.ell,
            f"i={st.i}, previous {prev_i}, ell={cert.ell}")
        add(f"{tag}_i_bound", st.i <= prev_j + cert.ell,
            f"i={st.i}, previous j {prev_j}, ell={cert.ell}")
        add(f"{tag}_monotone", st.i >= prev_i and st.width >= prev_width,
            f"i={st.i}, width {st.width} after i={prev_i}, width {prev_width}")
        add(f"{tag}_digit_shape",
            None not in (g_prev, g_now) and all(
                len(st.new_digits[s]) == g_now[s] - g_prev[s] for s in range(cert.d)),
            f"extents {list(g_prev or ())} -> {g_now}")
        add(f"{tag}_row_shape", shape_ok,
            f"{len(st.b)} annihilator entries for row extent {st.i}"
            + (f", width {st.width} past {MAX_J_CUTOFF}" if st.width > MAX_J_CUTOFF else "")
            + (f", width {st.width} past theta's data" if past else ""))
        if shape_ok and g_prev is not None:
            # the remaining checks index by the claimed extent
            if st.j_next is not None:
                add(f"{tag}_width_matches_j", st.width == st.j_next - 1,
                    f"width {st.width}, j_next {st.j_next}")
            annihilates = _annihilates(field, w, tails, st.b, cols)
            add(f"{tag}_annihilates", annihilates, f"width {st.width}")
            fixed, b_new = _split(field, st.b, g_prev, g_now, cert.gamma_digits)
            d_new = [c for s, h in enumerate(g_now) for c in cert.gamma_digits[s][g_prev[s]:h]]
            hit = field.add(fixed, field.dot(b_new, d_new)) != 0
            add(f"{tag}_digits_hit", hit, "b . pi(gamma) must be nonzero")
            add(f"{tag}_new_row_support", any(b_new), "annihilator must involve the new rows")
            # a solution n at any j <= width would give b . pi(gamma) = (b . M) n = 0
            proved = annihilates and hit
            add(f"{tag}_no_solution", proved, "" if proved else
                "not proved: " + ("b . pi(gamma) = 0" if annihilates else "b . M != 0"))
            if st.status == "infinite":
                bound = period_bound(vec)
                add(f"{tag}_plateau_certified",
                    bound is not None and st.width >= bound,
                    f"width {st.width} vs certification bound")
        prev_i, prev_width, g_prev = st.i, st.width, g_now
        prev_j = st.j_next if st.j_next is not None else prev_j
    if not stages:   # gamma_prefix never emits one: no stage, no bound
        add("stages_present", False, "a certificate needs at least one stage")
    # prefix consistency
    rebuilt = [[] for _ in range(cert.d)]
    for st in stages:
        for s in range(cert.d):
            rebuilt[s].extend(st.new_digits[s])
    add("prefix_matches_stages",
        tuple(tuple(x) for x in rebuilt) == cert.gamma_digits, "")
    ok = all(c[1] for c in checks)
    return CertificateReport(ok, checks, -(1 + cert.ell) if ok else None)


def _annihilates(field: Field, w: GeneralizedWeight, tails: list[bytes],
                 b: tuple[int, ...], width: int) -> bool:
    """b . M[len(b), width] = 0, summed as packed rows: row r (0-based) of
    block s is tails[s][r:r + width]."""
    rows = [tails[s][r:r + width] for s, h in enumerate(w.eval(len(b))) for r in range(h)]
    basis, acc = _Basis(field, width), 0
    for row, c in zip(rows, b):
        if c:
            acc = basis.sub_multiple(acc, int.from_bytes(row, "little"), c)
    return acc == 0


# ---------------------------------------------------------------------------
# Counting and explicit cylinder families
# ---------------------------------------------------------------------------

class ExtensionCount(NamedTuple):
    total: int
    excluded: int


def extension_counts(cert: Certificate, m: int) -> ExtensionCount:
    """Extension counts at stage m: q^gap total, q^{gap-1} excluded.

    The excluded extensions are those on the hyperplane b . pi(gamma) = 0,
    which meets exactly q^{gap-1} of them as long as b has support on the
    stage's new rows; without it, AssertionError."""
    st = cert.stages[m]
    prev_i = cert.stages[m - 1].i if m > 0 else 0
    w = cert.weight
    _, b_new = _split(cert.field, st.b, w.eval(prev_i), w.eval(st.i), cert.gamma_digits)
    if not any(b_new):
        raise AssertionError(f"stage {m}: annihilator has no support on the new rows")
    q, gap = cert.field.q, st.i - prev_i
    return ExtensionCount(q ** gap, q ** (gap - 1))


def schedule_from_certificate(cert: Certificate) -> ConstructionSchedule:
    """The explicit construction schedule realized by the certificate:
    stage lengths g(i_m) - g(i_{m-1}), removal exponent gap - 1."""
    return as_schedule(cert)


def survivor_cylinders(cert: Certificate,
                       stage_count: int | None = None) -> list[CylinderSet]:
    """Exhaustive survivor families [stage 0, ..., stage M] of the
    certificate's constraints, as stacked cylinder sets.

    A stage-m child is a surviving block with a tail of new digits added to
    each coordinate, and it survives iff b_m . pi(child) != 0.  That sum
    splits into b_m's old rows against the block and its new rows against
    the tail, so each stage takes one value per block and one per tail, and
    keeps the tails whose value does not cancel the block's."""
    n = len(cert.stages) if stage_count is None else stage_count
    if n > len(cert.stages):
        raise ValueError("certificate has fewer stages than requested")
    q = cert.field.q
    f = cert.field
    w = cert.weight
    out = [CylinderSet((0,) * cert.d, frozenset({()}))]
    blocks: list[tuple[int, ...]] = [()]         # stacked, coordinate-major
    prev_i = 0
    for m in range(n):
        st = cert.stages[m]
        if q ** st.i > ENUM_CAP:
            raise TooLargeToEnumerateError(
                f"stage extent {st.i} exceeds the enumeration cap")
        g_now, g_prev = w.eval(st.i), w.eval(prev_i)
        # b's old and new rows, and per coordinate where they sit in a
        # block and in a tail
        old, new, cuts, off = [], [], [], 0
        for g, h in zip(g_prev, g_now):
            cuts.append((len(old), len(old) + g, len(new), len(new) + h - g))
            old += st.b[off:off + g]
            new += st.b[off + g:off + h]
            off += h
        by_value: dict[int, list[tuple[int, ...]]] = {}
        for t in itertools.product(range(q), repeat=len(new)):
            by_value.setdefault(f.dot(new, t), []).append(t)
        children: list[tuple[int, ...]] = []
        for blk in blocks:
            fixed = f.dot(old, blk)
            for value, tails in by_value.items():
                if not f.add(fixed, value):
                    continue
                if len(cuts) == 1:
                    children += [blk + t for t in tails]
                else:
                    children += [sum((blk[a:b] + t[c:e] for a, b, c, e in cuts), ())
                                 for t in tails]
        blocks = children
        out.append(CylinderSet(tuple(g_now), frozenset(blocks)))
        prev_i = st.i
    return out
