"""Target certificates: construction, verification, counting, survivors."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from ffba import (Field, GeneralizedWeight, LaurentSeries, PeriodicSource, Poly, c_depth,
                  c_depth_weighted, expand_rational, extension_counts, gamma_prefix,
                  indices_sequence, measure_after_stages, parse_series, parse_weight,
                  qexp, register_rule, schedule_from_certificate, survivor_cylinders,
                  validate_tree_like, verify_certificate)
from ffba.errors import BudgetExhaustedError, CertificateFormatError
from ffba.hankel import HankelView
from ffba.indices import StageStatus
from ffba.linalg import nullspace
from ffba.targets import Certificate, _lexmin_of_line

from oracles import (OracleField, count_hyperplane, dense_solvable, left_kernel_basis,
                     left_null_lexmin_rref, rational_expansion, rational_recurrence_order,
                     survivor_family)


def _series(f, digits):
    return parse_series("frac=[%s]" % ",".join(map(str, digits)), f)


def _worked(q=2):
    f = Field.of_order(q)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    return th, gamma_prefix(th, ell=1)


# ---------------------------------------------------------------------------
# the worked construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_worked_certificate_exact_content(q):
    th, cert = _worked(q)
    assert cert.d == 1 and cert.ell == 1 and not cert.truncated
    assert cert.policy == "lexmin"
    assert cert.stage_extents() == [1, 3]
    assert cert.gamma_digits == ((1, 0, 1),)
    s0, s1 = cert.stages
    assert (s0.m, s0.i, s0.j_next, s0.width) == (0, 1, 2, 1)
    assert s0.b == (1,) and s0.new_digits == ((1,),)
    assert (s1.m, s1.i, s1.j_next) == (1, 3, None)
    assert s1.status == "infinite"
    assert s1.b == (0, 0, 1) and s1.new_digits == ((0, 1),)
    assert cert.gamma_stacked(3) == [1, 0, 1]


def test_worked_certificate_verifies_and_pins_constant():
    th, cert = _worked(2)
    rep = verify_certificate(cert)
    assert rep.ok and rep.failed() == []
    gamma = cert.gamma_series()[0]
    assert c_depth(th, gamma, 8).value == qexp(-2) == qexp(rep.bound_exponent)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_only_an_ok_report_states_its_bound(ell):
    """bound_exponent is -(1 + ell) when every check passed, and absent
    from a failing mutant's report."""
    th = parse_series("frac=periodic:[0,1]|[0]", Field(2))
    cert = gamma_prefix(th, ell=ell)
    rep = verify_certificate(cert)
    assert rep.ok and rep.bound_exponent == -(1 + ell)
    bad = dataclasses.replace(cert, gamma_digits=((0,) * len(cert.gamma_digits[0]),))
    rep = verify_certificate(bad)
    assert not rep.ok and rep.bound_exponent is None


def test_gamma_series_matches_digits():
    _, cert = _worked(3)
    g = cert.gamma_series()[0]
    assert [g.frac.coefficient(i) for i in (1, 2, 3)] == [1, 0, 1]


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_lexmin_picks_least_valid_assignment():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    cert = gamma_prefix(th, ell=1)
    # stage 1 constrains (gamma_2, gamma_3) by b = (0,0,1): the valid
    # assignments are (0,1) and (1,1); lexmin takes (0,1)
    s1 = cert.stages[1]
    valid = []
    for cand in itertools.product(range(2), repeat=2):
        digits = [1, *cand]
        dot = sum(bi * gi for bi, gi in zip(s1.b, digits)) % 2
        if dot != 0:
            valid.append(cand)
    assert sorted(valid) == [(0, 1), (1, 1)]
    assert s1.new_digits == (min(valid),)


def test_seeded_policy_is_deterministic_and_labeled():
    f = Field(5)
    th = parse_series("frac=periodic:[0,1,2,3]|[1]", f)
    a = gamma_prefix(th, ell=2, policy="seeded-random", seed=7)
    b = gamma_prefix(th, ell=2, policy="seeded-random", seed=7)
    c = gamma_prefix(th, ell=2, policy="seeded-random", seed=8)
    assert a.policy == "seeded-random:7"
    assert a.gamma_digits == b.gamma_digits
    assert a.gamma_digits != c.gamma_digits
    assert verify_certificate(a).ok and verify_certificate(c).ok


def test_seeded_policy_default_seed_zero():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    cert = gamma_prefix(th, policy="seeded-random")
    assert cert.policy == "seeded-random:0"


def test_policy_validation():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    with pytest.raises(ValueError):
        gamma_prefix(th, policy="lexmin", seed=3)
    with pytest.raises(ValueError):
        gamma_prefix(th, policy="coin-flip")


def test_trace_reuse_skips_rewalk():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1)
    cert = gamma_prefix(th, ell=1, trace=tr)
    assert cert.stage_extents() == [1, 3]


def test_trace_walked_under_another_ell_or_weight_is_refused():
    """The certificate states the trace's stages under the ell and weight
    asked for, so those must match; a trace walked at another budget is
    fine."""
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    with pytest.raises(ValueError, match="another ell or weight"):
        gamma_prefix(th, ell=2, trace=indices_sequence(th, ell=1))
    vec = (th, parse_series("frac=periodic:[0,0,1]|[0]", f))
    with pytest.raises(ValueError, match="another ell or weight"):
        gamma_prefix(vec, parse_weight("r:1/3,2/3"),
                     trace=indices_sequence(vec, parse_weight("equal", 2), 1))
    cert = gamma_prefix(th, ell=1, stage_budget=2,
                        trace=indices_sequence(th, ell=1, stage_budget=8))
    assert verify_certificate(cert).ok


# ---------------------------------------------------------------------------
# verification catches tampering
# ---------------------------------------------------------------------------

def _tamper_stage(cert, idx, **changes):
    stages = list(cert.stages)
    stages[idx] = dataclasses.replace(stages[idx], **changes)
    return dataclasses.replace(cert, stages=stages)


def test_verify_flags_zero_annihilator():
    _, cert = _worked(2)
    bad = _tamper_stage(cert, 0, b=(0,))
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("b_nonzero" in name for name, ok, _ in rep.failed())


def test_verify_flags_missed_hit():
    _, cert = _worked(2)
    bad = dataclasses.replace(cert, gamma_digits=((0, 0, 1),))
    rep = verify_certificate(bad)
    assert not rep.ok
    names = [name for name, ok, _ in rep.failed()]
    assert any("digits_hit" in n or "prefix_matches" in n for n in names)


def test_verify_flags_wrong_extent():
    _, cert = _worked(2)
    bad = _tamper_stage(cert, 1, i=4)
    assert not verify_certificate(bad).ok


def test_verify_flags_non_annihilator():
    f = Field(3)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    cert = gamma_prefix(th, ell=1)
    bad = _tamper_stage(cert, 1, b=(1, 0, 1))
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("annihilates" in name for name, ok, _ in rep.failed())


def test_verify_flags_stale_digits():
    _, cert = _worked(2)
    bad = _tamper_stage(cert, 1, new_digits=((1, 1),))
    rep = verify_certificate(bad)
    assert not rep.ok


def test_verify_rejects_lowered_ell():
    """t^-2 has c = q^-2 exactly; with ell = 0 the certificate would claim
    c >= q^-1, which fails i_m <= j_m + ell at the first stage (j_0 = 0)."""
    _, cert = _worked(2)
    doc = cert.to_json()
    doc["ell"] = 0
    rep = verify_certificate(Certificate.from_json(doc))
    assert not rep.ok
    assert "stage0_i_bound" in [name for name, ok, _ in rep.failed()]


def _window_certificate(q=2, length=40, seed=3):
    f = Field(q)
    rng = random.Random(seed)
    th = _series(f, [rng.randrange(q) for _ in range(length)])
    return gamma_prefix(th, ell=1, stage_budget=8)


@pytest.mark.parametrize("change", [{"width": -1}, {"i": -1}])
def test_verify_rejects_decreasing_stages(change):
    """A stage whose extent or width falls below the previous stage's is a
    failed check, not an exception.  Each stage's no-solution proof stands
    on its own, so the untouched stage 0 still passes it."""
    cert = _window_certificate()
    prev = cert.stages[2]
    key, delta = next(iter(change.items()))
    bad = _tamper_stage(cert, 3, **{key: getattr(prev, key) + delta})
    rep = verify_certificate(bad)
    failed = {name: detail for name, ok, detail in rep.failed()}
    assert not rep.ok and "stage3_monotone" in failed
    assert ("stage0_no_solution", True, "") in rep.checks


@pytest.mark.parametrize("key", ["i", "width"])
def test_verify_fails_huge_extents_without_building_them(key):
    """i beyond b's length, or a width past MAX_J_CUTOFF, fails the row
    shape check; neither the weight nor any row is evaluated there."""
    _, cert = _worked(2)
    rep = verify_certificate(_tamper_stage(cert, 1, **{key: 10 ** 9}))
    assert not rep.ok and "stage1_row_shape" in [name for name, _, _ in rep.failed()]


@pytest.mark.parametrize("q, d, weight", [(2, 1, None), (3, 1, None),
                                          (2, 2, "equal"), (3, 2, "r:1/3,2/3"),
                                          (2, 3, "assign:1,3,2,3"), (3, 3, "r:1/6,1/3,1/2")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_verify_least_solvable_column_matches_dense_scan(q, d, weight, data):
    """Random target digits make some stage systems solvable.  no_solution
    never passes where a column-by-column dense_solvable scan finds a
    solvable M[i_m, c] n = pi(gamma) with c <= width.  On a found stage b
    spans the whole left kernel of M[i_m, width], so there it passes
    exactly when the scan finds no such c."""
    f, of = Field(q), OracleField(q)
    code = st.integers(0, q - 1)
    vec = tuple(_series(f, data.draw(st.lists(code, min_size=30, max_size=30)))
                for _ in range(d))
    cert = gamma_prefix(vec, weight and parse_weight(weight, d), ell=1, stage_budget=8)
    bad = dataclasses.replace(cert, gamma_digits=tuple(
        tuple(data.draw(st.lists(code, min_size=len(ds), max_size=len(ds))))
        for ds in cert.gamma_digits))
    checks = {name: ok for name, ok, _ in verify_certificate(bad).checks}
    for stage in bad.stages:
        rows = HankelView.of(bad.theta, bad.weight, stage.i, stage.width).stacked_rows()
        pi = bad.gamma_stacked(stage.i)
        solvable = any(dense_solvable(of, [r[:c] for r in rows], pi)
                       for c in range(1, stage.width + 1))
        proved = checks[f"stage{stage.m}_no_solution"]
        assert not (proved and solvable)
        if stage.status == "found" and stage.width >= 1:
            assert proved == (not solvable)


@pytest.mark.parametrize("change", [{"q": 2 ** 61 - 1}, {"q": 12},
                                    {"q": 4, "modulus": [1, 0, 1]},
                                    {"q": 4, "modulus": "x"}])
def test_unusable_fields_are_malformed(change):
    """Any field the document's q and modulus cannot build is a format
    error, not a bare ValueError (and a huge q is never factored)."""
    _, cert = _worked()
    doc = {**cert.to_json(), **change}
    with pytest.raises(CertificateFormatError):
        Certificate.from_json(doc)


@pytest.mark.parametrize("modulus", [[1.0, 0, 1], [1, 0, True], [1, 0, "1"]])
def test_modulus_entries_must_be_ints(modulus):
    """A float, bool or string modulus entry is a format error: a float
    used to end verification in a bare TypeError, and a bool was accepted."""
    golden = json.loads(Path(__file__).with_name("golden_certificates.json").read_text())
    doc = next(c["certificate"] for c in golden if c["label"] == "window q=9 lexmin")
    with pytest.raises(CertificateFormatError):
        Certificate.from_json({**doc, "modulus": modulus})


def test_a_certificate_without_stages_fails():
    """With no stage there is no proof of any bound: t^-2 with its stages
    stripped would claim c >= q^-2, but N = t^2 gives 0."""
    _, cert = _worked(2)
    doc = cert.to_json()
    doc["stages"] = doc["gamma_prefix"] = []
    rep = verify_certificate(Certificate.from_json(doc))
    assert not rep.ok and rep.bound_exponent is None
    assert [name for name, _, _ in rep.failed()] == ["stages_present"]


def test_a_zero_denominator_is_malformed():
    _, cert = _worked()
    doc = cert.to_json()
    doc["theta"][0]["frac"] = {"kind": "rational", "num": [1], "den": [0]}
    with pytest.raises(CertificateFormatError, match="zero denominator"):
        Certificate.from_json(doc)


def test_theta_codes_outside_the_field_are_malformed():
    _, cert = _worked()
    doc = cert.to_json()
    doc["theta"][0]["frac"]["pre"] = [0, 2]
    with pytest.raises(CertificateFormatError):
        Certificate.from_json(doc)


# ---------------------------------------------------------------------------
# extension counting
# ---------------------------------------------------------------------------

def test_extension_counts_worked_example():
    _, cert = _worked(2)
    assert extension_counts(cert, 0) == (2, 1)
    assert extension_counts(cert, 1) == (4, 2)


@pytest.mark.parametrize("q,ell", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_extension_counts_match_brute_force(q, ell):
    f = Field.of_order(q)
    rng = random.Random(31 * q + ell)
    from oracles import OracleField
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    done = 0
    for _ in range(30):
        th = _series(f, [rng.randrange(q) for _ in range(40)])
        cert = gamma_prefix(th, ell=ell, stage_budget=3)
        prev = 0
        for m, st in enumerate(cert.stages):
            gap = st.i - prev
            prev = st.i
            if q ** gap > 256:
                continue
            got = extension_counts(cert, m)
            assert got.total == q ** gap
            # independent hyperplane count over the new digit positions
            stacked = cert.gamma_stacked(st.i)
            fixed_acc = 0
            for pos in range(st.i - gap):
                if st.b[pos] and stacked[pos]:
                    fixed_acc = of.add(fixed_acc,
                                       of.mul(st.b[pos], stacked[pos]))
            excluded = count_hyperplane(of, list(st.b),
                                        list(range(st.i - gap, st.i)),
                                        fixed_acc, q ** gap)
            assert got.excluded == excluded == q ** (gap - 1)
            done += 1
    assert done > 20


def test_extension_counts_tamper_trips_internal_check():
    _, cert = _worked(2)
    bad = _tamper_stage(cert, 1, b=(0, 0, 0))
    with pytest.raises(AssertionError):
        extension_counts(bad, 1)


# ---------------------------------------------------------------------------
# survivors and schedules
# ---------------------------------------------------------------------------

def test_survivors_worked_example():
    _, cert = _worked(2)
    stages = survivor_cylinders(cert)
    assert [c.ell for c in stages] == [(0,), (1,), (3,)]
    assert [len(c.blocks) for c in stages] == [1, 1, 2]
    assert sorted(stages[2].blocks) == [(1, 0, 1), (1, 1, 1)]
    assert validate_tree_like(stages).ok


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 2)])
def test_survivor_measure_equals_schedule_measure(q, ell):
    f = Field.of_order(q)
    rng = random.Random(9 * q + ell)
    th = _series(f, [rng.randrange(q) for _ in range(40)])
    cert = gamma_prefix(th, ell=ell, stage_budget=3)
    sched = schedule_from_certificate(cert)
    stages = survivor_cylinders(cert)
    for m, cyl in enumerate(stages):
        assert cyl.measure(q) == measure_after_stages(sched, m, q)
    # the certified target's own digits survive every stage
    for m, cyl in enumerate(stages):
        block = tuple(cert.gamma_stacked(sum(cyl.ell) // cert.d)) \
            if cert.d == 1 else None
        if block is not None:
            assert block in cyl.blocks


def test_survivors_two_dimensional():
    f = Field(2)
    rng = random.Random(5)
    vec = tuple(_series(f, [rng.randrange(2) for _ in range(40)])
                for _ in range(2))
    cert = gamma_prefix(vec, weight=GeneralizedWeight.equal(2), ell=1,
                        stage_budget=3)
    assert cert.d == 2
    assert verify_certificate(cert).ok
    stages = survivor_cylinders(cert)
    # one walk stage refines one coordinate, so diameters need not shrink
    # at every step; they must along the subchain where the minimum
    # extent grows, and all other tree conditions must hold throughout
    rep = validate_tree_like(stages)
    assert all("diameter" in name for name, ok, _ in rep.failed())
    kept = [stages[0]]
    for st in stages[1:]:
        if min(st.ell) > min(kept[-1].ell):
            kept.append(st)
    assert len(kept) >= 2 and validate_tree_like(kept).ok
    sched = schedule_from_certificate(cert)
    for m, cyl in enumerate(stages):
        assert cyl.measure(2) == measure_after_stages(sched, m, 2)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([None, "equal", "r:1/3,2/3"]),
       st.sampled_from([1, 2]), st.sampled_from(["lexmin", "seeded-random"]), st.data())
def test_survivor_families_match_enumeration_oracle(q, weight, ell, policy, data):
    """Every stage's survivors, split into one value per block and one per
    tail, are the blocks that the enumeration oracle keeps: all blocks of
    the stage's extent with b_k . pi_k != 0 at every stage k so far."""
    f = Field.of_order(q)
    d = 1 if weight is None else 2
    code = st.sampled_from([0, 0] + list(range(1, q)))
    vec = tuple(LaurentSeries.from_frac_coeffs(
        f, data.draw(st.lists(code, min_size=12, max_size=30)), tail="finite")
        for _ in range(d))
    w = parse_weight(weight, d) if weight else None
    try:
        cert = gamma_prefix(vec, w, ell, 4, policy=policy,
                            seed=data.draw(st.integers(0, 99)) if policy != "lexmin" else None)
    except BudgetExhaustedError:
        return
    n = 0
    while n < len(cert.stages) and q ** cert.stages[n].i <= 1024:
        n += 1
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    want = survivor_family(of, [(st_.i, st_.b) for st_ in cert.stages[:n]], cert.weight.eval)
    assert [(c.ell, set(c.blocks)) for c in survivor_cylinders(cert, n)] == want
    event(f"{n} stages enumerated")


# ---------------------------------------------------------------------------
# serialization and truncation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_certificate_json_roundtrip(d):
    f = Field(2)
    rng = random.Random(40 + d)
    if d == 1:
        theta = _series(f, [rng.randrange(2) for _ in range(40)])
        cert = gamma_prefix(theta, ell=1, stage_budget=3)
    else:
        vec = tuple(_series(f, [rng.randrange(2) for _ in range(40)])
                    for _ in range(2))
        cert = gamma_prefix(vec, weight=GeneralizedWeight.equal(2),
                            stage_budget=3)
    blob = json.dumps(cert.to_json())
    back = Certificate.from_json(json.loads(blob))
    assert back.to_json() == cert.to_json()
    assert back.gamma_digits == cert.gamma_digits
    assert back.stage_extents() == cert.stage_extents()
    assert verify_certificate(back).ok


def test_truncated_certificate_still_verifies():
    f = Field(2)
    th = parse_series("frac=rule:liminf", f)
    cert = gamma_prefix(th, ell=1, stage_budget=4, j_cutoff=6)
    assert cert.truncated
    assert cert.stages[-1].status == "cutoff"
    assert verify_certificate(cert).ok
    back = Certificate.from_json(cert.to_json())
    assert back.truncated


def test_infinite_certified_is_not_truncated():
    _, cert = _worked(2)
    assert not cert.truncated
    assert cert.stages[-1].status == "infinite"


# ---------------------------------------------------------------------------
# annihilators from the walk's echelon
# ---------------------------------------------------------------------------

@st.composite
def _walk_case(draw):
    """theta over q in {2, 3, 4, 9} with ell in {1, 2, 3}: d = 1, or d = 2
    under the equal or r:1/3,2/3 weight.  Coordinates are finite windows
    leaning towards 0, so that scans often pass the echelon's starting
    width and widen it, some shorter than stage_budget * ell, where the
    echelon starts at the window's width, short eventually periodic tails,
    or rational tails num/den with deg den <= 3 (the terminal stage's
    elimination stops at the recurrence order)."""
    f = Field.of_order(draw(st.sampled_from([2, 3, 4, 9])))
    weight = draw(st.sampled_from([None, "equal", "r:1/3,2/3"]))
    code = st.sampled_from([0, 0] + list(range(1, f.q)))
    theta = []
    for _ in range(1 if weight is None else 2):
        kind = draw(st.sampled_from(["finite", "periodic", "rational"]))
        if kind == "finite":
            n = draw(st.integers(1, 60))
            theta.append(LaurentSeries.from_frac_coeffs(
                f, draw(st.lists(code, min_size=n, max_size=n)), tail="finite"))
        elif kind == "rational":
            deg = draw(st.integers(1, 3 if f.q < 9 else 1))
            den = draw(st.lists(code, min_size=deg, max_size=deg)) + [1]
            num = draw(st.lists(code, max_size=deg + 1))
            theta.append(expand_rational(Poly(f, num), Poly(f, den)))
        else:
            pre = draw(st.lists(code, max_size=6))
            per = draw(st.lists(code, min_size=1, max_size=6))
            theta.append(LaurentSeries(f, Poly.zero(f), PeriodicSource(pre, per)))
    w = parse_weight(weight, 2) if weight else None
    return f, tuple(theta), w, draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(_walk_case())
def test_walk_annihilators_are_the_lexmin_annihilators(case):
    """Every column scan that finds j_{m+1} leaves b_m on the trace; in
    stacked order with a leading 1 it is the lex-least left annihilator of
    M[i_m, j_{m+1} - 1], and the certificate's found stages use it.  The
    last stage's b is the lex-least left annihilator at its full width."""
    f, theta, weight, ell, budget = case
    tr = indices_sequence(theta, weight, ell, budget)
    of = OracleField(f.p, f.k, list(f.modulus) if f.k > 1 else None)
    found = {m - 1: s.j for m, s in enumerate(tr.stages) if m and s.j is not None}
    assert set(tr.annihilators) == set(found)
    want = {}
    for m, j in found.items():
        i = tr.stages[m].i
        rows = HankelView.of(theta, tr.weight, i, j - 1).stacked_rows()
        want[m] = tuple(left_null_lexmin_rref(of, rows, i))
        assert _lexmin_of_line(f, tr.weight, tr.annihilators[m]) == want[m]
    cert = gamma_prefix(theta, weight, ell, budget, trace=tr)
    for cs in cert.stages:
        if cs.status == "found":
            assert cs.b == want[cs.m]
    last = cert.stages[-1]
    rows = HankelView.of(theta, tr.weight, last.i, last.width).stacked_rows()
    assert last.b == tuple(left_null_lexmin_rref(of, rows, last.i))
    event(f"last stage {last.status}")


@pytest.mark.parametrize("q, weight", [(2, None), (3, None), (3, "equal"),
                                       (9, "r:1/3,2/3")])
def test_trace_without_annihilators_is_rewalked(q, weight):
    """A trace that carries no annihilators (built by hand, say) gives the
    same certificate, by a walk with its own parameters; one whose stages
    differ from that walk is refused."""
    f = Field.of_order(q)
    rng = random.Random(q)
    d = 1 if weight is None else 2
    vec = tuple(_series(f, [rng.randrange(q) for _ in range(40)]) for _ in range(d))
    w = parse_weight(weight, d) if weight else None
    tr = indices_sequence(vec, w, 1, 8)
    bare = dataclasses.replace(tr, annihilators={})
    assert bare == tr and "annihilators" not in json.dumps(tr.to_json())
    cert = json.dumps(gamma_prefix(vec, w, trace=tr).to_json())
    assert json.dumps(gamma_prefix(vec, w, trace=bare).to_json()) == cert
    stages = list(tr.stages)
    stages[2] = dataclasses.replace(stages[2], j=stages[2].j + 1)
    with pytest.raises(ValueError):
        gamma_prefix(vec, w, trace=dataclasses.replace(bare, stages=stages))


# ---------------------------------------------------------------------------
# the verifier's packed annihilation check
# ---------------------------------------------------------------------------

@st.composite
def _annihilation_case(draw):
    """A certificate over q in {2, 3, 9}, d in {1, 2}, with one stage's b
    replaced: either random, or a random point of the left kernel of the
    stage matrix cut one column short of its width."""
    q = draw(st.sampled_from([2, 3, 9]))
    f = Field.of_order(q)
    weight = draw(st.sampled_from([None, "equal", "r:1/3,2/3"]))
    d = 1 if weight is None else 2
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    vec = tuple(_series(f, [rng.randrange(q) for _ in range(draw(st.integers(12, 40)))])
                for _ in range(d))
    cert = gamma_prefix(vec, parse_weight(weight, d) if weight else None, 1, 6)
    k = draw(st.integers(0, len(cert.stages) - 1))
    stage = cert.stages[k]
    b = [rng.randrange(q) for _ in range(stage.i)]
    if stage.width and draw(st.booleans()):
        rows = HankelView.of(vec, cert.weight, stage.i, stage.width - 1).stacked_rows()
        b = [0] * stage.i
        for v in nullspace(f, [list(col) for col in zip(*rows)], stage.i):
            c = rng.randrange(q)
            b = [f.add(x, f.mul(c, y)) for x, y in zip(b, v)]
    return f, _tamper_stage(cert, k, b=tuple(b))


@settings(max_examples=150, deadline=None)
@given(_annihilation_case())
def test_packed_annihilation_check_matches_dense_dots(case):
    """Each stage's annihilates check (name, verdict and detail) matches
    Field.dot of b against every column of the stacked rows."""
    f, cert = case
    want = {}
    for stage in cert.stages:
        rows = HankelView.of(cert.theta, cert.weight, stage.i, stage.width).stacked_rows()
        want[f"stage{stage.m}_annihilates"] = (
            not any(f.dot(stage.b, col) for col in zip(*rows)), f"width {stage.width}")
    got = {name: (ok, detail) for name, ok, detail in verify_certificate(cert).checks
           if name.endswith("_annihilates")}
    assert got == want


# primitive denominators: t^12 + t^6 + t^4 + t + 1 over F_2 (period 4095,
# past j_cutoff) and t^3 + 2t + 1 over F_3 (period 26, a certified plateau)
_A_OVER_P = [(2, [1, 1, 0, 1], [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]),
             (3, [2, 1], [1, 2, 0, 1])]


@pytest.mark.parametrize("q, num, den", _A_OVER_P)
def test_tampered_rational_last_stage_fails_annihilates(q, num, den):
    """The verifier checks a rational certificate's annihilators over the
    recurrence order D's columns only, yet a last-stage b changed in one
    entry, or replaced by a left kernel vector of the first w <= D + 1
    columns, gets the verdict of oracle dots against all claimed columns;
    both verdicts occur."""
    f = Field.of_order(q)
    of = OracleField(q)
    cert = gamma_prefix(expand_rational(Poly(f, num), Poly(f, den)), ell=1,
                        stage_budget=len(den) + 8)
    last = cert.stages[-1]
    assert verify_certificate(cert).ok and last.status == ("cutoff" if q == 2 else "infinite")
    tail = rational_expansion(of, num, den, last.i + last.width)[1]
    candidates = []
    for k, c in itertools.product(range(last.i), range(1, q)):
        b = list(last.b)
        b[k] = of.add(b[k], c)
        candidates.append(b)
    for w in range(rational_recurrence_order(of, [(num, den)]) + 2):
        rows = [tail[r:r + w] for r in range(last.i)]
        candidates += left_kernel_basis(of, rows, last.i)
    verdicts = set()
    for b in candidates:
        want = not any(
            reduce(of.add, (of.mul(x, tail[r + col]) for r, x in enumerate(b)), 0)
            for col in range(last.width))
        bad = _tamper_stage(cert, len(cert.stages) - 1, b=tuple(b))
        checks = {name: ok for name, ok, _ in verify_certificate(bad).checks}
        assert checks[f"stage{last.m}_annihilates"] == want
        verdicts.add(want)
    assert verdicts == {False, True}


def test_rational_walk_construction_and_check_fetch_few_digits():
    """a/P over F_2 with deg P = 16 (period 2^16 - 1): the walk,
    gamma_prefix and verify_certificate read no tail digit past index 64,
    and the walk still ends exhausted at j_cutoff 4096."""
    f = Field.of_order(2)
    theta = expand_rational(Poly(f, [1, 0, 1]), Poly(f, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]))
    read, digits = [0], theta.frac.digits

    def counted(start, stop):
        read[0] = max(read[0], stop)
        return digits(start, stop)

    theta.frac.digits = counted
    tr = indices_sequence(theta, ell=1, stage_budget=24)
    cert = gamma_prefix(theta, ell=1, stage_budget=24, trace=tr)
    assert verify_certificate(cert).ok and cert.stages[-1].status == "cutoff"
    assert read[0] <= 64
    last = tr.stages[-1]
    assert (last.status, last.scan_width) == (StageStatus.EXHAUSTED, 4096)


# ---------------------------------------------------------------------------
# soundness of the stage lemma, end to end
# ---------------------------------------------------------------------------

def _seeded_rule(name: str, q: int, seed: int) -> str:
    """Register a rule source serving a seeded random digit stream."""
    rng = random.Random(seed)
    digits: list[int] = []

    def rule(i: int) -> int:
        while i > len(digits):
            digits.append(rng.randrange(q))
        return digits[i - 1]

    register_rule(name, rule)
    return f"rule:{name}"


@st.composite
def _soundness_case(draw):
    """A certificate for random theta: q in {2, 3, 9}; d in {1, 2, 3}; each
    coordinate periodic, rational, rule or finite; equal, assign: or r:
    weight; either digit policy; a column cutoff that keeps the scans
    short."""
    q = draw(st.sampled_from([2, 3, 9]))
    d = draw(st.sampled_from([1, 2, 3]))
    f = Field.of_order(q)
    code = st.integers(0, q - 1)

    def codes(lo: int, hi: int) -> str:
        return ",".join(map(str, draw(st.lists(code, min_size=lo, max_size=hi))))

    theta = []
    for s in range(d):
        kind = draw(st.sampled_from(["periodic", "rational", "rule", "finite"]))
        if kind == "periodic":
            frac = f"periodic:[{codes(0, 3)}]|[{codes(1, 4)}]"
        elif kind == "rational":
            # the period, and so the plateau width, stays below 100 digits
            deg = draw(st.integers(1, {2: 5, 3: 3, 9: 2}[q]))
            den = codes(deg, deg) + "," + str(draw(st.integers(1, q - 1)))
            frac = f"rational:[{codes(0, deg)}]/[{den}]"
        elif kind == "rule":
            seed = draw(st.integers(0, 1 << 30))
            frac = _seeded_rule(f"soundness-{q}-{seed}", q, seed)
        else:
            frac = f"finite:[{codes(12, 40)}]"
        theta.append(parse_series(f"frac={frac}", f))
    weight = draw(st.sampled_from({1: ["equal", "assign:1", "r:1"],
                                   2: ["equal", "assign:1,2", "r:1/3,2/3"],
                                   3: ["equal", "assign:1,3,2,3", "r:1/6,1/3,1/2"]}[d]))
    policy = draw(st.sampled_from(["lexmin", "seeded-random"]))
    try:
        cert = gamma_prefix(tuple(theta), parse_weight(weight, d), draw(st.sampled_from([1, 2])),
                            draw(st.integers(1, 5)), draw(st.integers(8, 96)), policy=policy)
    except BudgetExhaustedError:
        cert = None
    return f, cert, draw(st.lists(code, max_size=12))


@settings(max_examples=150, deadline=None)
@given(_soundness_case())
def test_verified_certificates_state_true_bounds(case):
    """For every ok certificate, gamma = its prefix plus any tail: no N of
    degree below the last stage's width comes closer than the stated
    q^bound_exponent.  The scan stops where a finite coordinate's data
    ends (a stage may cover columns past it when that coordinate has no
    rows yet)."""
    f, cert, tail = case
    rep = None if cert is None else verify_certificate(cert)
    if rep is None or not rep.ok:
        return
    max_deg = min([cert.stages[-1].width - 1]
                  + [t.guarantee - 1 for t in cert.theta if t.guarantee is not None])
    if max_deg < 0:
        return
    gamma = tuple(LaurentSeries.from_frac_coeffs(f, list(ds) + tail, tail="zero")
                  for ds in cert.gamma_digits)
    const = c_depth_weighted(cert.theta, gamma, cert.weight, max_deg)
    assert const.value is None or const.value >= qexp(rep.bound_exponent)
