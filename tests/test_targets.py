"""Target certificates: construction, verification, counting, survivors."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from ffba import (Field, GeneralizedWeight, c_depth, extension_counts,
                  gamma_prefix, indices_sequence, measure_after_stages,
                  parse_series, parse_weight, qexp, schedule_from_certificate,
                  survivor_cylinders, validate_tree_like, verify_certificate)
from ffba.hankel import HankelView
from ffba.targets import Certificate

from oracles import OracleField, count_hyperplane, dense_solvable


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
    assert c_depth(th, gamma, 8).value == qexp(-2)


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
    failed check, not an exception, and skips the one-pass solvability
    check instead of answering it wrongly."""
    cert = _window_certificate()
    prev = cert.stages[2]
    key, delta = next(iter(change.items()))
    bad = _tamper_stage(cert, 3, **{key: getattr(prev, key) + delta})
    rep = verify_certificate(bad)
    failed = {name: detail for name, ok, detail in rep.failed()}
    assert not rep.ok and "stage3_monotone" in failed
    assert failed.get("stage0_no_solution") == "not checked: stages not monotone"


@pytest.mark.parametrize("q, d, weight", [(2, 1, None), (3, 1, None),
                                          (2, 2, "equal"), (3, 2, "r:1/3,2/3")])
def test_verify_least_solvable_column_matches_dense_scan(q, d, weight):
    """With random target digits some stage systems become solvable; the
    verifier's verdict and its 'solvable at j=c' column must match a
    column-by-column dense_solvable scan, with and without j_cap."""
    f = Field(q)
    of = OracleField(q)
    rng = random.Random(17 * q + d)
    vec = tuple(_series(f, [rng.randrange(q) for _ in range(30)]) for _ in range(d))
    w = parse_weight(weight, d) if weight else None
    cert = gamma_prefix(vec, w, ell=1, stage_budget=8)
    solvable_seen = 0
    for _ in range(4):
        bad = dataclasses.replace(cert, gamma_digits=tuple(
            tuple(rng.randrange(q) for _ in ds) for ds in cert.gamma_digits))
        for j_cap in (None, 3, 7):
            checks = {name: (ok, detail)
                      for name, ok, detail in verify_certificate(bad, j_cap).checks}
            for st in bad.stages:
                cap = st.width if j_cap is None else min(st.width, j_cap)
                rows = HankelView.of(bad.theta, bad.weight, st.i, cap).stacked_rows()
                pi = bad.gamma_stacked(st.i)
                want = next((c for c in range(1, cap + 1)
                             if dense_solvable(of, [r[:c] for r in rows], pi)), None)
                assert checks[f"stage{st.m}_no_solution"] == \
                    (want is None, "" if want is None else f"solvable at j={want}")
                solvable_seen += want is not None
    assert solvable_seen


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


def test_extension_counts_cap_skips_enumeration():
    _, cert = _worked(2)
    assert extension_counts(cert, 1, enum_cap=0) == (4, 2)


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
