"""Self-test of the benchmark: its checks catch bad results, and its tracing
survives names that are missing.

Run with ``PYTHONPATH=src python -m pytest -q bench``.  The library is
used as already imported (never re-imported), so this file can share a
pytest session with the package's own tests.
"""

from __future__ import annotations

import random

import pytest

import ffba
import ffba.cli
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def fields():
    return {q: ffba.Field.of_order(q) for q in (2, 3, 9)}


def _tally(jobs) -> run.Tally:
    tally = run.Tally()
    tally.add([job.run() for job in jobs])
    return tally


def _anchor_certificate_job(fields, tamper=None) -> workloads.Job:
    """Build the t^-2 certificate over F_2, optionally tamper with it, and
    put it through the same certificate checks every construct-verify job
    runs."""

    def body():
        chk = workloads.Checks()
        f = fields[2]
        theta = ffba.LaurentSeries(f, ffba.Poly.zero(f), ffba.PeriodicSource((0, 1), (0,)))
        cert = ffba.gamma_prefix(theta, ell=1)
        if tamper is not None:
            tamper(cert)
        workloads.check_certificate(ffba, chk, cert, "t^-2")
        return chk.problems

    return workloads.Job("t^-2 certificate", body)


def _flip_first_digit(cert) -> None:
    first = cert.gamma_digits[0]
    cert.gamma_digits = ((1 - first[0],) + first[1:],) + cert.gamma_digits[1:]


def _lower_ell(cert) -> None:
    # t^-2 has c = q^-2 exactly; with ell = 0 the certificate claims
    # c >= q^-1, which is false.  verify_certificate alone accepts it.
    cert.ell -= 1


def test_untampered_jobs_pass(fields):
    rng = random.Random(7)
    jobs = [_anchor_certificate_job(fields),
            workloads._construct_job(ffba, fields, rng, 0, (2, 1, 1, None, 12, "rule", True)),
            workloads._anchor_job(ffba, fields, 2, 6)]
    tally = _tally(jobs)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 0, True)


@pytest.mark.parametrize("tamper", [_flip_first_digit, _lower_ell])
def test_tampered_certificate_counts_as_failed(fields, tamper):
    tally = _tally([_anchor_certificate_job(fields, tamper)])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_certificate_tampered_in_transit_counts_as_failed(fields, monkeypatch):
    """A construct-verify job whose certificate JSON loses a digit on the
    way out fails its round-trip checks."""
    original = ffba.Certificate.to_json

    def to_json(self):
        doc = original(self)
        doc["gamma_prefix"][0] = 1 - doc["gamma_prefix"][0]
        return doc

    monkeypatch.setattr(ffba.Certificate, "to_json", to_json)
    rng = random.Random(7)
    job = workloads._construct_job(ffba, fields, rng, 0, (2, 1, 1, None, 12, "rule", True))
    tally = _tally([job])
    assert (tally.failed, tally.correct) == (1, False)


def test_wrong_expected_constant_counts_as_failed(fields):
    tally = _tally([workloads._anchor_job(ffba, fields, 2, 6, expected_exp=-3),
                    workloads._anchor_job(ffba, fields, 3, 4, expected_exp=-1)])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 2, False)


def test_uncertified_rational_is_failed_but_not_wrong(fields):
    """a/P with P primitive of degree 12 over F_2 stops at j_cutoff: the job
    fails and names the defect, but no false claim was made."""
    rng = random.Random(3)
    tally = _tally([workloads._rational_job(ffba, fields, rng, 0, 2, 12, 1)])
    assert (tally.failed, tally.correct) == (1, True)
    assert any("j_cutoff" in line for line in tally.lines())


def test_tracer_restores_names_and_reports_missing_ones(fields, monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "linalg.gone", ["ffba.linalg:no_such_function"])
    monkeypatch.setitem(tracing.COUNTERS, "series.gone.pulls", ["ffba.series:Nope.coefficient"])
    originals = (ffba.linalg.rref, ffba.targets.left_null_vector,
                 ffba.linalg.RankEngine.__dict__["add"], ffba.Field.__dict__["of_order"])
    rng = random.Random(5)
    job = workloads._construct_job(ffba, fields, rng, 0, (3, 1, 1, None, 10, "rule", True))
    counts = []
    tracer = tracing.Tracer()
    for _ in range(2):
        before = tracer.snapshot()
        tracer.install()
        try:
            assert ffba.linalg.rref is not originals[0]
            assert job.run() == []
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        counts.append({k: v - before.get(k, 0) for k, v in after.items()
                       if not k.endswith("_s")})
    assert (ffba.linalg.rref, ffba.targets.left_null_vector,
            ffba.linalg.RankEngine.__dict__["add"],
            ffba.Field.__dict__["of_order"]) == originals
    assert {"linalg.gone", "series.gone.pulls"} <= tracer.absent
    assert "linalg.gone.calls" not in counts[0]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.left_null_lexmin.calls"] > 0
    assert counts[0]["series.coefficient.pulls"] > 0
