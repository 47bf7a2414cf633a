"""Construction of badly approximable targets, with replayable certificates.

Each completed walk stage m (extent i_m, next threshold j_{m+1}) yields a
nonzero vector b_m annihilating every column of the i_m-row matrix below
j_{m+1}; any target digit vector with b_m . pi(gamma) != 0 then blocks all
small-denominator solutions at that extent.  The construction fixes target
digits stage by stage, always choosing inside the allowed set (exactly
q^{gap-1} of the q^{gap} extensions are excluded per stage), and records
everything needed for independent re-verification in a Certificate.

Policies: "lexmin" picks the lexicographically smallest valid extension
(unconstrained digits default to 0); a seeded policy draws uniformly from
the valid extensions and is reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .cantor import ConstructionSchedule, CylinderSet, as_schedule
from .errors import (BudgetExhaustedError, CertificateFormatError,
                     TooLargeToEnumerateError)
from .field import Field
from .hankel import HankelView, default_weight, left_null_vector
from .indices import (DEFAULT_J_CUTOFF, IndicesTrace, Stage, StageStatus,
                      indices_sequence)
from .linalg import least_solvable_columns
from .series import LaurentSeries, as_vector, period_bound, series_from_json
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
        field = Field.of_order(_need(obj, "q"), obj.get("modulus"))
        d = _need(obj, "d")
        try:
            weight = GeneralizedWeight.from_json(_need(obj, "weight", dict))
            theta = tuple(series_from_json(t, field) for t in _need(obj, "theta", list))
        except (KeyError, TypeError, IndexError) as exc:
            raise CertificateFormatError(f"malformed theta or weight: {exc!r}") from exc
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
                            width=_need(st, "width", lo=0),
                            b=codes(_need(st, "b", list), "b"),
                            new_digits=per_coord(_need(st, "gamma_digits", list),
                                                 "gamma_digits"))
                  for st in _need(obj, "stages", list)]
        return cls(field=field, d=d, ell=_need(obj, "ell"), weight=weight,
                   theta=theta, stages=stages,
                   gamma_digits=per_coord(_need(obj, "gamma_prefix", list),
                                          "gamma_prefix"),
                   truncated=_need(obj, "truncated", bool),
                   policy=_need(obj, "policy", str) if "policy" in obj else "lexmin")


def _need(doc, key: str, kind=int, lo: int | None = None):
    """doc[key], which must be present, of the given type (a bool is no
    int) and, when lo is given, at least lo."""
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateFormatError(f"certificate field {key!r} is missing")
    value = doc[key]
    wrong_type = not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
    if wrong_type or (lo is not None and value < lo):
        raise CertificateFormatError(f"certificate field {key!r} is malformed")
    return value


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _split_positions(g_prev: tuple[int, ...], g_now: tuple[int, ...],
                     digits) -> tuple[list[int], list[int]]:
    """The stacked vector at block heights g_now holding the digits fixed
    at heights g_prev (zeros at the new positions), and the new positions,
    in order."""
    known = [0] * sum(g_now)
    new_positions: list[int] = []
    off = 0
    for s, h in enumerate(g_now):
        for idx in range(h):
            if idx < g_prev[s]:
                known[off + idx] = digits[s][idx]
            else:
                new_positions.append(off + idx)
        off += h
    return known, new_positions


def _pick_extension(field: Field, b: tuple[int, ...], known: list[int],
                    new_positions: list[int], policy: str,
                    rng: random.Random | None) -> list[int]:
    """Digits u for the new stacked positions with b . (known + u) != 0.

    known holds the stacked vector with zeros at the new positions.
    Lexmin: if the fixed part already hits, all-zero u is minimal;
    otherwise a single 1 at the last new position where b is nonzero
    (zeros anywhere later contribute nothing, so this is minimal).
    """
    f = field
    fixed = f.dot(b, known)
    b_new = [b[pos] for pos in new_positions]
    if not any(b_new):
        raise AssertionError("annihilator has no support on the new rows")
    if rng is None:
        u = [0] * len(new_positions)
        if fixed == 0:
            u[max(k for k, c in enumerate(b_new) if c)] = 1
        return u
    while True:
        u = [rng.randrange(f.q) for _ in new_positions]
        if f.add(fixed, f.dot(b_new, u)) != 0:
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
            width = nxt.j - 1
            status = "found"
        elif nxt.status is StageStatus.INFINITE_CERTIFIED:
            width = nxt.scan_width
            status = "infinite"
        else:
            width = nxt.scan_width
            status = "cutoff"
        i_m = cur.i
        b = left_null_vector(vec, w, i_m, width)
        assert b is not None, "rank below extent must leave an annihilator"
        g_now, g_prev = w.eval(i_m), w.eval(prev_i)
        known, new_positions = _split_positions(g_prev, g_now, digits)
        u = iter(_pick_extension(field, b, known, new_positions, policy, rng))
        new_digits = []
        for s in range(w.d):
            add = [next(u) for _ in range(g_prev[s], g_now[s])]
            digits[s].extend(add)
            new_digits.append(tuple(add))
        stages.append(CertStage(m=m, i=i_m, j_next=nxt.j, status=status,
                                width=width, b=b,
                                new_digits=tuple(new_digits)))
        prev_i = i_m
        if status != "found" or nxt.i is None:
            truncated = status == "cutoff" or nxt.i is None
            break
    if not stages:
        raise BudgetExhaustedError(
            "no constraint stage could be completed")
    return Certificate(field=field, d=w.d, ell=ell, weight=w, theta=vec,
                       stages=stages,
                       gamma_digits=tuple(tuple(ds) for ds in digits),
                       truncated=truncated, policy=policy)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    ok: bool
    checks: list[tuple[str, bool, str]]

    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]


def verify_certificate(cert: Certificate, j_cap: int | None = None) -> CertificateReport:
    """Re-verify a certificate from theta and the recorded data alone.

    Beyond replaying the annihilation identities, the solvability claims
    are checked directly: for every stage and every covered column count
    j, the linear system M[i_m, j] n = pi(gamma) must have no solution.
    Each stage also needs i_m <= j_m + ell (j_m the previous stage's j, 0
    before the first), which is what makes c >= q^-(1+ell) follow.
    Nothing from the construction run is trusted."""
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    vec = cert.theta
    w = cert.weight
    field = cert.field
    stages = cert.stages
    heights = [w.eval(st.i) for st in stages]
    shaped = [len(st.b) == st.i and all(len(cert.gamma_digits[s]) >= h
                                        for s, h in enumerate(g))
              for st, g in zip(stages, heights)]
    caps = [st.width if j_cap is None else max(0, min(st.width, j_cap))
            for st in stages]
    checked = [(st.i, cap) for st, ok, cap in zip(stages, shaped, caps) if ok]
    least = None
    if checked and all(a.i <= b.i and a.width <= b.width
                       for a, b in zip(stages, stages[1:])):
        # stage m's rows are the first i_m rows in walk order, so one pass
        # at the last (largest) checked extent and width answers every stage
        least = _least_solvable(cert, *checked[-1])
    prev_i = prev_j = prev_width = 0
    g_prev = w.eval(0)
    for st, g_now, shape_ok, cap in zip(stages, heights, shaped, caps):
        tag = f"stage{st.m}"
        add(f"{tag}_b_nonzero", any(st.b), "")
        add(f"{tag}_i_step", st.i >= prev_i + cert.ell,
            f"i={st.i}, previous {prev_i}, ell={cert.ell}")
        add(f"{tag}_i_bound", st.i <= prev_j + cert.ell,
            f"i={st.i}, previous j {prev_j}, ell={cert.ell}")
        add(f"{tag}_monotone", st.i >= prev_i and st.width >= prev_width,
            f"i={st.i}, width {st.width} after i={prev_i}, width {prev_width}")
        add(f"{tag}_digit_shape",
            all(len(st.new_digits[s]) == g_now[s] - g_prev[s]
                for s in range(cert.d)),
            f"extents {list(g_prev)} -> {g_now}")
        add(f"{tag}_row_shape", shape_ok,
            f"{len(st.b)} annihilator entries for row extent {st.i}")
        if shape_ok:
            # the remaining checks index by the claimed extent
            if st.j_next is not None:
                add(f"{tag}_width_matches_j", st.width == st.j_next - 1,
                    f"width {st.width}, j_next {st.j_next}")
            rows = HankelView.of(vec, w, st.i, st.width).stacked_rows()
            add(f"{tag}_annihilates",
                not any(field.dot(st.b, col) for col in zip(*rows)),
                f"width {st.width}")
            add(f"{tag}_digits_hit", field.dot(st.b, cert.gamma_stacked(st.i)) != 0,
                "b . pi(gamma) must be nonzero")
            _, new_positions = _split_positions(g_prev, g_now, cert.gamma_digits)
            add(f"{tag}_new_row_support", any(st.b[pos] for pos in new_positions),
                "annihilator must involve the new rows")
            # direct non-solvability of every covered system
            if least is None:
                add(f"{tag}_no_solution", False, "not checked: stages not monotone")
            else:
                c = least[st.i]
                solvable = c is not None and c <= cap
                add(f"{tag}_no_solution", not solvable,
                    f"solvable at j={c}" if solvable else "")
            if st.status == "infinite":
                bound = period_bound(vec)
                add(f"{tag}_plateau_certified",
                    bound is not None and st.width >= bound,
                    f"width {st.width} vs certification bound")
        prev_i, prev_width, g_prev = st.i, st.width, g_now
        prev_j = st.j_next if st.j_next is not None else prev_j
    # prefix consistency
    rebuilt = [[] for _ in range(cert.d)]
    for st in stages:
        for s in range(cert.d):
            rebuilt[s].extend(st.new_digits[s])
    add("prefix_matches_stages",
        tuple(tuple(x) for x in rebuilt) == cert.gamma_digits, "")
    return CertificateReport(all(c[1] for c in checks), checks)


def _least_solvable(cert: Certificate, n: int, width: int) -> list[int | None]:
    """least_solvable_columns over the first n rows of the certificate's
    matrix at the given width, in walk order: row k (1-based) is row
    g^s(k) of block s = weight.assign(k), so for every i <= n the first i
    rows are exactly the rows of M[i, width]."""
    w = cert.weight
    rows = HankelView.of(cert.theta, w, n, width).stacked_rows()
    pi = cert.gamma_stacked(n)
    cursor = list(w.offsets(n))     # next stacked row of each block
    order = []
    for k in range(1, n + 1):
        s = w.assign(k) - 1
        order.append(cursor[s])
        cursor[s] += 1
    return least_solvable_columns(cert.field, [rows[o] for o in order],
                                  [pi[o] for o in order], width)


# ---------------------------------------------------------------------------
# Counting and explicit cylinder families
# ---------------------------------------------------------------------------

class ExtensionCount(NamedTuple):
    total: int
    excluded: int


def extension_counts(cert: Certificate, m: int,
                     enum_cap: int = ENUM_CAP) -> ExtensionCount:
    """Extension counts at stage m: q^gap total, q^{gap-1} excluded.

    When q^gap fits under enum_cap the exclusion count is also re-derived
    by brute-force enumeration over all extensions of the certificate's
    own earlier digits (the hyperplane b . pi(gamma) = 0 meets exactly
    q^{gap-1} of the q^gap extensions)."""
    st = cert.stages[m]
    q = cert.field.q
    prev_i = cert.stages[m - 1].i if m > 0 else 0
    gap = st.i - prev_i
    total = q ** gap
    excluded = q ** (gap - 1)
    if total <= enum_cap:
        f = cert.field
        known, new_positions = _split_positions(
            cert.weight.eval(prev_i), cert.weight.eval(st.i), cert.gamma_digits)
        fixed = f.dot(st.b, known)
        b_new = [st.b[pos] for pos in new_positions]
        count = 0
        u = [0] * gap
        while True:
            if f.add(fixed, f.dot(b_new, u)) == 0:
                count += 1
            k = gap - 1
            while k >= 0 and u[k] == q - 1:
                u[k] = 0
                k -= 1
            if k < 0:
                break
            u[k] += 1
        if count != excluded:
            raise AssertionError(
                f"stage {m}: enumeration found {count} excluded extensions, "
                f"expected {excluded}")
    return ExtensionCount(total, excluded)


def schedule_from_certificate(cert: Certificate) -> ConstructionSchedule:
    """The explicit construction schedule realized by the certificate:
    stage lengths g(i_m) - g(i_{m-1}), removal exponent gap - 1."""
    return as_schedule(cert)


def survivor_cylinders(cert: Certificate, stage_count: int | None = None,
                       enum_cap: int = ENUM_CAP) -> list[CylinderSet]:
    """Exhaustive survivor families [stage 0, ..., stage M] of the
    certificate's constraints, as stacked cylinder sets."""
    n = len(cert.stages) if stage_count is None else stage_count
    if n > len(cert.stages):
        raise ValueError("certificate has fewer stages than requested")
    q = cert.field.q
    f = cert.field
    w = cert.weight
    out = [CylinderSet((0,) * cert.d, frozenset({()}))]
    blocks: list[tuple[tuple[int, ...], ...]] = [((),) * cert.d]
    prev_i = 0
    for m in range(n):
        st = cert.stages[m]
        if q ** st.i > enum_cap:
            raise TooLargeToEnumerateError(
                f"stage extent {st.i} exceeds the enumeration cap")
        g_now = w.eval(st.i)
        g_prev = w.eval(prev_i)
        gaps = [g_now[s] - g_prev[s] for s in range(cert.d)]
        new_blocks = []
        for blk in blocks:
            exts = [blk]
            for s in range(cert.d):
                widened = []
                for partial in exts:
                    stem = partial[s]
                    tails = [()]
                    for _ in range(gaps[s]):
                        tails = [t + (c,) for t in tails for c in range(q)]
                    for t in tails:
                        nxt = list(partial)
                        nxt[s] = stem + t
                        widened.append(tuple(nxt))
                exts = widened
            for cand in exts:
                if f.dot(st.b, [c for s in range(cert.d) for c in cand[s]]):
                    new_blocks.append(cand)
        blocks = new_blocks
        out.append(CylinderSet(tuple(g_now),
                               frozenset(tuple(c for s in range(cert.d)
                                               for c in blk[s])
                                         for blk in blocks)))
        prev_i = st.i
    return out
