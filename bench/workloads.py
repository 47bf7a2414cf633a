"""The three benchmark workloads: seeded job lists and their correctness checks.

A workload is built from a seed into a fixed list of jobs.  Each job is a
closure that calls the library through the ``ffba`` package object it was
built with (looking every name up at call time, so the traced run's
rebinding is seen) and returns the problems its checks found.  A job with
no problems delivered a checked result: a verified certificate or an exact
constant.

Problem kinds:

* ``wrong``        -- the library returned a result that its check refutes;
* ``raised``       -- a library call raised;
* ``inconclusive`` -- the library answered "not decided" where the input's
  construction decides it (a declared-rational tail that the rank walk did
  not certify rational).  The job counts as failed; no false claim was made.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

import inputs

WORKLOADS = ("construct-verify", "constant-scan", "rational-plateau")


@dataclass(frozen=True)
class Problem:
    kind: str           # wrong | raised | inconclusive
    text: str


@dataclass
class Job:
    name: str
    body: Callable[[], list]

    def run(self) -> list[Problem]:
        """Run the job; an exception counts as a failed job, never aborts
        the benchmark."""
        try:
            return self.body()
        except Exception as exc:  # the job boundary must keep the loop running
            return [Problem("raised", f"{type(exc).__name__}: {exc}")]


class Checks:
    """Collects problems; every check of a job runs even after one fails."""

    def __init__(self):
        self.problems: list[Problem] = []

    def expect(self, ok: bool, text: str, kind: str = "wrong") -> bool:
        if not ok:
            self.problems.append(Problem(kind, text))
        return ok


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------

def run_cli(F, argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Call ffba.cli.main in process with captured stdout (and stdin)."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if stdin_text is not None:
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin_text)
            stack.callback(setattr, sys, "stdin", saved)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        rc = F.cli.main(argv)
    return rc, out.getvalue()


def check_walk(chk: Checks, trace, label: str) -> None:
    """i_m <= j_m + ell on every completed walk stage, and a real walk."""
    for st in trace.stages:
        if st.i is not None and st.j is not None:
            chk.expect(st.i <= st.j + trace.ell,
                       f"{label}: walk stage {st.m} has i={st.i} > j+ell={st.j + trace.ell}")
    chk.expect(len(trace.stages) >= 2, f"{label}: walk has no stage past the conventional one")


def check_certificate(F, chk: Checks, cert, label: str) -> None:
    """The certificate verifies as built and after a JSON round trip, the
    round trip is byte-identical, and i_m <= j_m + ell holds on the stored
    stages (j_m is the previous stage's j, 0 before the first), which is
    what makes the claimed bound q^-(1+ell) follow."""
    chk.expect(F.verify_certificate(cert).ok, f"{label}: certificate as built fails verification")
    text = json.dumps(cert.to_json(), sort_keys=True)
    back = F.Certificate.from_json(json.loads(text))
    rep = F.verify_certificate(back)
    failed = [name for name, ok, _ in rep.checks if not ok]
    chk.expect(rep.ok, f"{label}: certificate after JSON round trip fails {failed[:3]}")
    chk.expect(json.dumps(back.to_json(), sort_keys=True) == text,
               f"{label}: JSON round trip is not byte-identical")
    j_prev = 0
    for st in back.stages:
        chk.expect(st.i <= j_prev + back.ell,
                   f"{label}: stage {st.m} has i={st.i} > j+ell={j_prev + back.ell} "
                   f"(claimed bound q^-{1 + back.ell} does not follow)")
        j_prev = st.j_next if st.j_next is not None else j_prev


def lazy_digits(seed: str, q: int, prefill: int) -> Callable[[int], int]:
    """A rule function serving a seeded random digit stream.  The first
    prefill digits are drawn at set-up; later ones are drawn on demand from
    the same stream, so the digits never depend on the access order."""
    rng = random.Random(seed)
    digits = [rng.randrange(q) for _ in range(prefill)]

    def rule(i: int) -> int:
        while i > len(digits):
            digits.append(rng.randrange(q))
        return digits[i - 1]

    return rule


def _codes(seq) -> str:
    return ",".join(str(c) for c in seq)


# ---------------------------------------------------------------------------
# construct-verify
# ---------------------------------------------------------------------------

# (copies, (q, d, ell, weight, budget, source, cli)): source is "rule" (an
# unbounded seeded stream, the walk stops at the budget) or "window:<n>" (n
# seeded digits whose end stops the walk before the budget).  The job costs
# fall into three groups of 20 (cheap, middle, heavy), so the median and
# the tail percentile each land inside a block of like jobs instead of on
# the gap between two sizes.  Those blocks are q = 9 windows: their walks
# are the most regular, so their cost varies least from draw to draw.
CONSTRUCT_SPECS = [
    # cheap: unbounded streams at small budgets, d = 1 and d = 2
    (2, (2, 1, 1, None, 16, "rule", True)),
    (2, (2, 1, 1, None, 20, "rule", False)),
    (1, (2, 1, 2, None, 16, "rule", False)),
    (2, (3, 1, 1, None, 16, "rule", True)),
    (1, (3, 1, 1, None, 24, "rule", False)),
    (1, (3, 1, 2, None, 16, "rule", False)),
    (1, (9, 1, 1, None, 16, "rule", True)),
    (2, (9, 1, 1, None, 24, "rule", False)),
    (1, (9, 1, 2, None, 16, "rule", False)),
    (1, (2, 2, 1, "equal", 16, "rule", True)),
    (1, (2, 2, 1, "r:1/3,2/3", 16, "rule", False)),
    (1, (3, 2, 1, "equal", 16, "rule", False)),
    (1, (3, 2, 1, "r:1/3,2/3", 16, "rule", True)),
    (1, (9, 2, 1, "equal", 16, "rule", False)),
    (1, (9, 2, 1, "equal", 20, "rule", False)),
    (1, (9, 2, 1, "r:1/3,2/3", 24, "rule", True)),
    # middle: one spec, so the median is the median of 20 like draws
    (20, (9, 1, 1, None, 96, "window:75", False)),
    # heavy: the p75 job is the 5th lightest of these 20, which falls in
    # the middle of the block of 10 like q = 9 windows
    (10, (9, 1, 1, None, 96, "window:100", False)),
    (5, (3, 1, 1, None, 96, "window:125", False)),
    (3, (2, 1, 2, None, 96, "window:190", False)),
    (2, (2, 1, 1, None, 96, "window:155", True)),
]

SURVIVOR_CAP = 1 << 12


def _construct_job(F, fields, rng: random.Random, k: int, spec) -> Job:
    q, d, ell, weight, budget, source, cli = spec
    field = fields[q]
    policy = "lexmin" if k % 2 == 0 else "seeded-random"
    policy_seed = rng.randrange(1 << 30) if policy == "seeded-random" else None
    prefill = 4 * (ell + 1) * budget + 64
    if source == "rule":
        names = [f"bench-cv-{k}-{s}" for s in range(d)]
        for s, name in enumerate(names):
            F.register_rule(name, lazy_digits(f"{rng.random()}:{s}", q, prefill))
        window = None
    else:
        length = int(source.split(":")[1])
        window = [rng.randrange(q) for _ in range(length)]
    label = f"cv{k}:q={q},d={d},ell={ell},{weight or 'trivial'},budget={budget},{source},{policy}"

    def body() -> list[Problem]:
        chk = Checks()
        if window is None:
            theta = tuple(F.LaurentSeries(field, F.Poly.zero(field), F.rule_source(n))
                          for n in names)
        else:
            theta = (F.LaurentSeries.from_frac_coeffs(field, window, tail="finite"),)
        w = F.parse_weight(weight, d) if weight else None
        trace = F.indices_sequence(theta, w, ell, budget)
        check_walk(chk, trace, label)
        cert = F.gamma_prefix(theta, w, ell, budget, policy=policy, seed=policy_seed,
                              trace=trace)
        check_certificate(F, chk, cert, label)
        for m in range(min(3, len(cert.stages))):
            prev_i = cert.stages[m - 1].i if m else 0
            gap = cert.stages[m].i - prev_i
            got = F.extension_counts(cert, m)
            chk.expect(tuple(got) == (q ** gap, q ** (gap - 1)),
                       f"{label}: extension counts at stage {m} are {tuple(got)}")
        n_enum = 0
        while n_enum < len(cert.stages) and q ** cert.stages[n_enum].i <= SURVIVOR_CAP:
            n_enum += 1
        if n_enum:
            # for d > 1 one stage may refine a single coordinate, so the
            # tree-like conditions are checked along the subchain where
            # the smallest extent grows (all of it when d = 1)
            families = F.survivor_cylinders(cert, n_enum)
            chain = [families[0]]
            for fam in families[1:]:
                if min(fam.ell) > min(chain[-1].ell):
                    chain.append(fam)
            chk.expect(F.validate_tree_like(chain).ok,
                       f"{label}: survivor cylinders are not tree-like")
        dim = F.dimension_lower_bound(cert)
        chk.expect(math.isfinite(dim) and dim < d, f"{label}: dimension bound {dim}")
        if cli:
            rc, out = run_cli(F, ["certificate-check", "--file", "-", "--format", "json"],
                              stdin_text=json.dumps(cert.to_json()))
            chk.expect(rc == 0 and json.loads(out)["ok"] is True,
                       f"{label}: certificate-check exited {rc}")
        return chk.problems

    return Job(label, body)


def construct_verify(F, fields, seed: int) -> list[Job]:
    rng = random.Random(f"construct-verify:{seed}")
    specs = [spec for copies, spec in CONSTRUCT_SPECS for _ in range(copies)]
    return [_construct_job(F, fields, rng, k, spec) for k, spec in enumerate(specs)]


# ---------------------------------------------------------------------------
# constant-scan
# ---------------------------------------------------------------------------

# theta = t^-2 at these degree bounds: the constructed target has digits
# (1, 0, 1) and the constant is exactly q^-2.
ANCHOR_DEGREES = {2: (10, 11, 12, 13, 14, 15, 16), 3: (5, 6, 7, 8, 9), 9: (2, 3, 4)}
# d = 2 weighted scans: (q, max_deg, split) with windows [0, split], [split+1, max_deg]
WEIGHTED_SCANS = [(2, 11, 7), (2, 12, 8), (3, 6, 4), (3, 7, 4), (9, 2, 1), (9, 3, 1)]
COMPARE_SCANS = [(2, 11), (2, 12), (3, 6), (9, 2)]
WITNESS_BATCHES = [(2, 100), (3, 100), (9, 100)]
UNCERTIFIED = [(2, 1, 16, 12), (3, 1, 16, 7), (2, 2, 12, 10), (9, 1, 12, 3)]  # q, ell, budget, max_deg
SPECTRA = [(2, 64), (2, 128), (2, 192), (3, 96)]


def _anchor_job(F, fields, q: int, max_deg: int, expected_exp: int = -2) -> Job:
    field = fields[q]
    label = f"anchor:t^-2,q={q},max_deg={max_deg}"

    def body() -> list[Problem]:
        chk = Checks()
        theta = F.LaurentSeries(field, F.Poly.zero(field), F.PeriodicSource((0, 1), (0,)))
        cert = F.gamma_prefix(theta, ell=1)
        chk.expect(cert.gamma_digits == ((1, 0, 1),),
                   f"{label}: gamma digits {cert.gamma_digits}, expected (1, 0, 1)")
        chk.expect(F.verify_certificate(cert).ok, f"{label}: certificate fails verification")
        rep = F.c_depth(theta, cert.gamma_series()[0], max_deg)
        chk.expect(rep.value == F.qexp(expected_exp),
                   f"{label}: constant {rep.value}, expected q^{expected_exp}")
        return chk.problems

    return Job(label, body)


def _periodic_codes(rng, q: int, pre: int, per: int) -> tuple[tuple, tuple]:
    return (tuple(rng.randrange(q) for _ in range(pre)),
            tuple(rng.randrange(q) for _ in range(per)))


def _weighted_job(F, fields, rng, q: int, max_deg: int, split: int, weight: str) -> Job:
    field = fields[q]
    thetas = [_periodic_codes(rng, q, 6, 5) for _ in range(2)]
    gammas = [tuple(rng.randrange(q) for _ in range(12)) for _ in range(2)]
    label = f"weighted:q={q},{weight},max_deg={max_deg}"

    def body() -> list[Problem]:
        chk = Checks()
        theta = tuple(F.LaurentSeries(field, F.Poly.zero(field), F.PeriodicSource(a, b))
                      for a, b in thetas)
        gamma = tuple(F.LaurentSeries.from_frac_coeffs(field, g, tail="zero") for g in gammas)
        w = F.parse_weight(weight, 2)
        whole = F.c_depth_weighted(theta, gamma, w, max_deg)
        lo = F.c_depth_weighted(theta, gamma, w, split)
        hi = F.c_depth_weighted(theta, gamma, w, max_deg, deg_lo=split + 1)
        merged = F.merge_reports(hi, lo)
        chk.expect(whole.value is not None and not whole.precision_limited,
                   f"{label}: exact inputs gave an uncertified value")
        chk.expect(merged.value == whole.value and merged.witness == whole.witness,
                   f"{label}: merged windows {merged.value} != single window {whole.value}")
        window = F.c_liminf_depth(theta, gamma, split + 1, max_deg, weight=w)
        chk.expect(window == hi.value,
                   f"{label}: c_liminf_depth window {window} != report {hi.value}")
        return chk.problems

    return Job(label, body)


def _compare_job(F, fields, rng, q: int, max_deg: int) -> Job:
    field = fields[q]
    thetas = [_periodic_codes(rng, q, 6, 5) for _ in range(2)]
    gammas = [tuple(rng.randrange(q) for _ in range(12)) for _ in range(2)]
    label = f"compare:q={q},r=1/3,2/3,max_deg={max_deg}"

    def body() -> list[Problem]:
        chk = Checks()
        theta = tuple(F.LaurentSeries(field, F.Poly.zero(field), F.PeriodicSource(a, b))
                      for a, b in thetas)
        gamma = tuple(F.LaurentSeries.from_frac_coeffs(field, g, tail="zero") for g in gammas)
        rep = F.compare_weighted_constants(theta, gamma, ["1/3", "2/3"], max_deg)
        chk.expect(rep.within_bound,
                   f"{label}: real and induced exponents differ by {rep.difference}")
        return chk.problems

    return Job(label, body)


def _witness_job(F, fields, rng, q: int, count: int) -> Job:
    """theta_1 = 0 and theta_2 != 0 force a witness by j = 2 with bound at
    most q^-2 (find_witness_small's documented guarantee)."""
    field = fields[q]
    cases = []
    for _ in range(count):
        pre = (0, rng.randrange(1, q)) + tuple(rng.randrange(q) for _ in range(6))
        cases.append((pre, (rng.randrange(q),),
                      tuple(rng.randrange(q) for _ in range(10))))
    label = f"witness:q={q},cases={count}"

    def body() -> list[Problem]:
        chk = Checks()
        bound = F.qexp(-2)
        for pre, per, g in cases:
            theta = F.LaurentSeries(field, F.Poly.zero(field), F.PeriodicSource(pre, per))
            gamma = F.LaurentSeries.from_frac_coeffs(field, g, tail="zero")
            rep = F.find_witness_small(theta, gamma)
            good = rep.found and rep.rows <= 2 and rep.bound <= bound
            if good and rep.value_is_exact:
                good = rep.value <= rep.bound
            if not chk.expect(good, f"{label}: theta {pre}|{per}, gamma {g}: "
                                    f"found={rep.found} rows={rep.rows} bound={rep.bound}"):
                break
        return chk.problems

    return Job(label, body)


def _uncertified_job(F, fields, rng, k: int, q: int, ell: int, budget: int,
                     max_deg: int) -> Job:
    """A seeded random stream has no declared period, so the scan cannot
    certify exact zeros: candidates matching every scanned digit are
    skipped and the report is precision limited."""
    field = fields[q]
    name = f"bench-cs-{k}"
    F.register_rule(name, lazy_digits(f"{rng.random()}", q, 4 * (ell + 1) * budget + 64))
    label = f"uncertified:q={q},ell={ell},budget={budget},max_deg={max_deg}"

    def body() -> list[Problem]:
        chk = Checks()
        theta = F.LaurentSeries(field, F.Poly.zero(field), F.rule_source(name))
        cert = F.gamma_prefix(theta, ell=ell, stage_budget=budget)
        chk.expect(F.verify_certificate(cert).ok, f"{label}: certificate fails verification")
        rep = F.c_depth(theta, cert.gamma_series()[0], max_deg, prec=max_deg)
        chk.expect(rep.precision_limited == (rep.skipped > 0),
                   f"{label}: precision_limited={rep.precision_limited} with skipped={rep.skipped}")
        chk.expect(rep.value is None or rep.value >= F.qexp(-(1 + ell)),
                   f"{label}: value {rep.value} below the certified q^-{1 + ell}")
        return chk.problems

    return Job(label, body)


def _spectrum_job(F, fields, q: int, depth: int) -> Job:
    """The liminf series has theta_1 = 0 (so m0 = 1), and the spectrum up
    to 2^(k+1) shows at least k singular-then-invertible alternations."""
    field = fields[q]
    k = depth.bit_length() - 2
    label = f"spectrum:liminf,q={q},depth={depth}"

    def body() -> list[Problem]:
        chk = Checks()
        theta = F.make_liminf_theta(field)
        m0 = F.m0_structure(theta, depth)
        chk.expect(m0.m0 == 1 and not m0.pattern_consistent,
                   f"{label}: m0={m0.m0}, pattern_consistent={m0.pattern_consistent}")
        lim = F.liminf_structure(theta, depth, k)
        chk.expect(lim.meets_k and lim.spectrum == m0.spectrum,
                   f"{label}: {lim.count} alternations, need {k}")
        return chk.problems

    return Job(label, body)


def constant_scan(F, fields, seed: int) -> list[Job]:
    rng = random.Random(f"constant-scan:{seed}")
    jobs = [_anchor_job(F, fields, q, md)
            for q, degs in ANCHOR_DEGREES.items() for md in degs]
    for q, md, split in WEIGHTED_SCANS:
        for weight in ("equal", "r:1/3,2/3"):
            jobs.append(_weighted_job(F, fields, rng, q, md, split, weight))
    jobs += [_compare_job(F, fields, rng, q, md) for q, md in COMPARE_SCANS]
    jobs += [_witness_job(F, fields, rng, q, n) for q, n in WITNESS_BATCHES]
    jobs += [_uncertified_job(F, fields, rng, k, *spec) for k, spec in enumerate(UNCERTIFIED)]
    jobs += [_spectrum_job(F, fields, q, depth) for q, depth in SPECTRA]
    return jobs


# ---------------------------------------------------------------------------
# rational-plateau
# ---------------------------------------------------------------------------

# (q, degree of the primitive denominator P, ell) for theta = a/P, and
# (q, degree, preperiod length, ell) for an eventually periodic theta.  As
# in construct-verify the costs form groups (cheap, middle, heavy) so the
# median and tail land inside a group.  Degrees 12 and 16 over F_2 stay:
# their walks stop at j_cutoff today, and those jobs count as failed.
RATIONAL_SPECS = [
    # cheap
    (2, 8, 1), (2, 8, 2), (2, 8, 3), (2, 8, 1), (2, 9, 2), (2, 9, 2),
    (3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 5, 1), (3, 5, 2), (3, 5, 3),
    # middle
    (2, 10, 1), (2, 10, 1), (2, 10, 1), (2, 10, 1),
    (2, 10, 2), (2, 10, 2), (2, 10, 2), (2, 10, 2), (3, 6, 3), (3, 6, 3),
    # heavy
    (2, 11, 1), (2, 11, 1), (2, 11, 1), (2, 11, 1),
    (2, 11, 2), (2, 11, 2), (2, 11, 2), (2, 11, 2),
    (2, 12, 1), (2, 16, 1), (3, 7, 1), (3, 7, 2),
]
PERIODIC_SPECS = [
    (3, 5, 12, 1), (3, 4, 16, 1),        # cheap
    (2, 9, 12, 1), (2, 9, 12, 1),        # middle
    (2, 11, 10, 1), (3, 7, 6, 1),        # heavy
]
ZERO_SCAN_DEG = 2
EXPAND_PREC = 16


def _rational_job(F, fields, rng, k: int, q: int, n: int, ell: int,
                  pre_len: int | None = None) -> Job:
    """theta = a/P with P primitive of degree n (pre_len None), or an
    eventually periodic theta whose period block is one period of a/P
    behind pre_len seeded digits.  Either way the period is q^n - 1 and the
    tail is rational, so the walk must certify a plateau."""
    field = fields[q]
    den = inputs.random_primitive(rng, q, n)
    num = inputs.random_poly(rng, q, rng.randrange(n))
    period = q ** n - 1
    budget = n + 8 if pre_len is None else n + pre_len + 8
    n0 = inputs.random_poly(rng, q, ZERO_SCAN_DEG)
    if pre_len is None:
        kind = f"a/P,deg P={n}"
        # gamma = <N0 theta> = (N0 a mod P) / P: an exact zero at N = N0
        gamma_num = inputs.poly_mulmod(n0, num, den, q)
        pre = per = None
    else:
        kind = f"periodic,pre={pre_len},per={period}"
        pre = tuple(rng.randrange(q) for _ in range(pre_len))
        per = tuple(inputs.tail_digits(num, den, q, period))
        digits = list(pre) + list(per) * 2
        g = inputs.times_poly_tail(n0, digits, q, pre_len + period)
        gamma_pre, gamma_per = tuple(g[:pre_len]), tuple(g[pre_len:])
    prefix = inputs.tail_digits(num, den, q, EXPAND_PREC)
    label = f"rp{k}:q={q},{kind},ell={ell}"

    def body() -> list[Problem]:
        chk = Checks()
        zero = F.Poly.zero(field)
        if pre is None:
            theta = F.expand_rational(F.Poly(field, num), F.Poly(field, den))
            gamma = F.expand_rational(F.Poly(field, gamma_num), F.Poly(field, den))
        else:
            theta = F.LaurentSeries(field, zero, F.PeriodicSource(pre, per))
            gamma = F.LaurentSeries(field, zero, F.PeriodicSource(gamma_pre, gamma_per))
        trace = F.indices_sequence(theta, ell=ell, stage_budget=budget)
        check_walk(chk, trace, label)
        verdict = F.rationality_probe(theta, ell, budget, trace=trace)
        last = trace.stages[-1]
        chk.expect(verdict.kind == "rational_certified",
                   f"{label}: declared-rational theta not certified: verdict {verdict.kind}, "
                   f"walk ended {last.status.value} at column {last.scan_width}: the "
                   f"plateau certification width preperiod + period + i = "
                   f"{(len(pre) if pre else 0) + period + (last.i or 0)} exceeds "
                   f"j_cutoff {trace.j_cutoff}",
                   kind="inconclusive")
        cert = F.gamma_prefix(theta, ell=ell, stage_budget=budget, trace=trace)
        rep = F.verify_certificate(cert)
        chk.expect(rep.ok, f"{label}: certificate fails {[c[0] for c in rep.failed()][:3]}")
        plateau = [ok for name, ok, _ in rep.checks if name.endswith("_plateau_certified")]
        chk.expect(cert.stages[-1].status == "infinite" and plateau == [True],
                   f"{label}: certificate ends '{cert.stages[-1].status}' without a "
                   f"certified plateau (same j_cutoff defect)", kind="inconclusive")
        const = F.c_depth(theta, gamma, ZERO_SCAN_DEG)
        chk.expect(const.value is not None and const.value.is_zero and const.zero_witness
                   and const.witness is not None and list(const.witness.coeffs) == n0,
                   f"{label}: c_depth of <N0 theta> gave {const.value}, witness "
                   f"{const.witness}, expected an exact zero at N0={n0}")
        rc, out = run_cli(F, ["expand", "--q", str(q), "--num", _codes(num),
                              "--den", _codes(den), "--prec", str(EXPAND_PREC),
                              "--format", "json"])
        doc = json.loads(out) if rc == 0 else {}
        chk.expect(rc == 0 and doc.get("period") == period and doc.get("preperiod") == 0
                   and doc.get("frac_prefix") == prefix,
                   f"{label}: expand exited {rc} with period {doc.get('period')}, "
                   f"expected {period}")
        return chk.problems

    return Job(label, body)


def rational_plateau(F, fields, seed: int) -> list[Job]:
    rng = random.Random(f"rational-plateau:{seed}")
    jobs = [_rational_job(F, fields, rng, k, q, n, ell)
            for k, (q, n, ell) in enumerate(RATIONAL_SPECS)]
    base = len(jobs)
    jobs += [_rational_job(F, fields, rng, base + k, q, n, ell, pre_len)
             for k, (q, n, pre_len, ell) in enumerate(PERIODIC_SPECS)]
    return jobs


BUILDERS = {
    "construct-verify": construct_verify,
    "constant-scan": constant_scan,
    "rational-plateau": rational_plateau,
}
