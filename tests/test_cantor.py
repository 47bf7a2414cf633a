"""Schedules, surviving measure, tree checks, dimension bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ffba import (ConstructionSchedule, CylinderSet, DegenerateScheduleError,
                  Field, InvalidScheduleError, as_schedule,
                  dimension_lower_bound, gamma_prefix, indices_sequence,
                  measure_after_stages, parse_series, validate_tree_like)


def _C(q):
    return (math.log(q) - math.log(q - 1)) / math.log(q)


# ---------------------------------------------------------------------------
# schedules and measure
# ---------------------------------------------------------------------------

def test_constant_schedule_measure_closed_form():
    sched = ConstructionSchedule.constant(2, 1)
    for m in range(11):
        assert measure_after_stages(sched, m, 2) == Fraction(1, 2 ** m)
    sched = ConstructionSchedule.constant(3, 1)
    for m in range(8):
        assert measure_after_stages(sched, m, 3) == Fraction(8, 9) ** m


def test_two_dim_schedule_measure():
    sched = ConstructionSchedule.constant((1, 1), 1)
    for m in range(8):
        assert measure_after_stages(sched, m, 2) == Fraction(1, 2 ** m)


def test_explicit_schedule_measure_is_stage_product():
    stages = [((2,), 1), ((3,), 0), ((1,), 0)]
    sched = ConstructionSchedule.explicit(stages)
    q = 3
    want = Fraction(1)
    for ell, ellp in stages:
        tot = sum(ell)
        want *= Fraction(q ** tot - q ** ellp, q ** tot)
    assert measure_after_stages(sched, 3, q) == want
    with pytest.raises(InvalidScheduleError):
        measure_after_stages(sched, 4, q)     # beyond the explicit stages


def test_schedule_validation():
    with pytest.raises(InvalidScheduleError):
        ConstructionSchedule.constant(2, 2)       # ellp must stay below sum
    with pytest.raises(InvalidScheduleError):
        ConstructionSchedule.constant(0)
    with pytest.raises(InvalidScheduleError):
        ConstructionSchedule.explicit([])
    with pytest.raises(InvalidScheduleError):
        ConstructionSchedule.explicit([((1,), 0), ((1, 1), 0)])
    assert ConstructionSchedule.constant(2).ellp == 1   # default keeps one digit free


def test_measure_limit_zero():
    assert ConstructionSchedule.constant(2, 1).measure_limit_zero() is True
    assert ConstructionSchedule.explicit(
        [((2,), 1), ((2,), 1)]).measure_limit_zero() is None


# ---------------------------------------------------------------------------
# dimension lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_dimension_limit_closed_form(q, ell):
    sched = ConstructionSchedule.constant(ell)
    got = dimension_lower_bound(sched, q=q)
    assert abs(got - (1 - _C(q) / ell)) < 1e-12


def test_dimension_finite_stage_values_increase_to_limit():
    sched = ConstructionSchedule.constant(2, 1)
    vals = [dimension_lower_bound(sched, m=m, q=2) for m in (1, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5
    assert abs(dimension_lower_bound(sched, m=1000, q=2) -
               (1 - Fraction(1001, 2000) * 1.0)) < 1e-12
    assert abs(dimension_lower_bound(sched, q=2) - 0.5) < 1e-12


def test_dimension_argument_handling():
    sched = ConstructionSchedule.constant(2, 1)
    with pytest.raises(ValueError):
        dimension_lower_bound(sched)               # no q anywhere
    with pytest.raises(InvalidScheduleError):
        dimension_lower_bound(sched, d=2, q=2)     # wrong coordinate count
    with pytest.raises(DegenerateScheduleError):
        dimension_lower_bound(ConstructionSchedule.constant((2, 0), 1), q=2)
    with pytest.raises(InvalidScheduleError):
        dimension_lower_bound(sched, m=0, q=2)


def test_dimension_pulls_q_from_certificate():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    cert = gamma_prefix(th, ell=1)
    assert dimension_lower_bound(cert) == dimension_lower_bound(cert, q=2)


# ---------------------------------------------------------------------------
# schedule coercion
# ---------------------------------------------------------------------------

def test_as_schedule_identity_and_errors():
    sched = ConstructionSchedule.constant(2, 1)
    assert as_schedule(sched) is sched
    with pytest.raises(InvalidScheduleError):
        as_schedule(42)
    with pytest.raises(InvalidScheduleError):
        as_schedule(object())


def test_as_schedule_from_trace_and_certificate_agree():
    f = Field(2)
    th = parse_series("frac=periodic:[0,1]|[0]", f)
    tr = indices_sequence(th, ell=1)
    cert = gamma_prefix(th, ell=1)
    a = as_schedule(tr)
    b = as_schedule(cert)
    assert a.kind == b.kind == "explicit"
    assert a.stage_count == b.stage_count
    for m in range(a.stage_count):
        assert a.stage_ell(m) == b.stage_ell(m)
        assert a.stage_ellp(m) == b.stage_ellp(m)
    # worked example: extents 1 then 3, one digit constrained per stage
    assert [a.stage_ell(m) for m in range(a.stage_count)] == [(1,), (2,)]
    assert [a.stage_ellp(m) for m in range(a.stage_count)] == [0, 1]


# ---------------------------------------------------------------------------
# cylinder sets and the tree checks
# ---------------------------------------------------------------------------

def test_cylinder_set_accessors():
    c = CylinderSet((2, 1), frozenset({(0, 1, 0), (1, 1, 1)}))
    assert c.total == 3
    assert c.offsets() == (0, 2)
    assert c.measure(2) == Fraction(2, 8)
    assert c.restrict((1, 1)) == {(0, 0), (1, 1)}
    assert c.restrict((2, 0)) == {(0, 1), (1, 1)}
    assert CylinderSet((3,), frozenset({(0, 1, 0)})).restrict((2,)) == {(0, 1)}


def _chain():
    return [
        CylinderSet((0,), frozenset({()})),
        CylinderSet((2,), frozenset({(0, 1), (1, 0)})),
        CylinderSet((3,), frozenset({(0, 1, 0), (1, 0, 1)})),
    ]


def test_tree_check_accepts_good_chain():
    rep = validate_tree_like(_chain())
    assert rep.ok and rep.failed() == []


def test_tree_check_flags_each_defect():
    # orphan: a stage-2 block whose prefix survives no stage-1 cylinder
    bad = _chain()
    bad[2] = CylinderSet((3,), frozenset({(1, 1, 0)}))
    rep = validate_tree_like(bad)
    assert not rep.ok
    assert any(name == "stage2_refines" for name, ok, _ in rep.failed())

    # childless: a stage-1 cylinder with no refinement
    bad = _chain()
    bad[2] = CylinderSet((3,), frozenset({(0, 1, 0)}))
    rep = validate_tree_like(bad)
    assert any(name == "stage1_all_refined" for name, ok, _ in rep.failed())

    # diameters must strictly shrink
    bad = _chain()
    bad[2] = CylinderSet((2,), frozenset({(0, 1)}))
    rep = validate_tree_like(bad)
    assert not rep.ok

    # stage 0 must be the full cube
    bad = _chain()
    bad[0] = CylinderSet((1,), frozenset({(0,)}))
    rep = validate_tree_like(bad)
    assert any(name == "stage0_full_cube" for name, ok, _ in rep.failed())

    # dead stage
    bad = _chain()
    bad[1] = CylinderSet((2,), frozenset())
    rep = validate_tree_like(bad)
    assert any(name == "stage1_positive_measure"
               for name, ok, _ in rep.failed())

    assert not validate_tree_like([]).ok


def _chain_2d(last):
    """d = 2: coordinate 1's digits, then coordinate 2's, at extents
    (0, 0), (1, 1), (2, 2); a stage-2 block (a1, a2, b1, b2) refines (a1, b1)."""
    return [CylinderSet((0, 0), frozenset({()})),
            CylinderSet((1, 1), frozenset({(0, 1), (1, 0)})),
            CylinderSet((2, 2), frozenset(last))]


@pytest.mark.parametrize("last, failed", [
    ({(0, 0, 1, 0), (1, 1, 0, 1)}, []),
    ({(0, 0, 1, 0), (1, 1, 0, 1), (0, 1, 0, 0)},
     [("stage2_refines", False, "1 orphan cylinders")]),
    ({(0, 1, 1, 1)},
     [("stage1_all_refined", False, "1 childless cylinders")]),
    ({(1, 0, 1, 0), (0, 0, 0, 0)},
     [("stage2_refines", False, "2 orphan cylinders"),
      ("stage1_all_refined", False, "2 childless cylinders")]),
])
def test_tree_check_two_dimensional_details(last, failed):
    """Parents are projected coordinate by coordinate; the failing checks
    and their details name the orphan and childless counts."""
    rep = validate_tree_like(_chain_2d(last))
    assert rep.failed() == failed and rep.ok == (not failed)
