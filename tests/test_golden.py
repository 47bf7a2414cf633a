"""Certificates reproduce stored reference output byte for byte.

golden_certificates.json holds certificates built by the rref-based
annihilator that the one-pass tagged kernel replaced: the t^-2 example,
seeded windows over q = 2, 3, 9 under both digit policies (one with
ell = 2), a periodic theta whose walk ends on a certified plateau, and
d = 2 windows under the equal and r:1/3,2/3 weights.  Each entry stores
the stage budget; theta, weight, ell and policy come from the certificate.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest

from ffba import (Certificate, CertificateFormatError, c_depth_weighted, gamma_prefix,
                  qexp, verify_certificate)

CASES = json.loads(Path(__file__).with_name("golden_certificates.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["label"] for c in CASES])
def test_certificate_reproduced_byte_for_byte(case):
    stored = case["certificate"]
    ref = Certificate.from_json(stored)
    policy, _, seed = ref.policy.partition(":")
    cert = gamma_prefix(ref.theta, ref.weight, ref.ell, case["budget"],
                        policy=policy, seed=int(seed) if seed else None)
    assert json.dumps(cert.to_json()) == json.dumps(stored)
    assert verify_certificate(cert).ok


# ---------------------------------------------------------------------------
# single-field mutations: rejected, or still true
# ---------------------------------------------------------------------------

HUGE = 10 ** 9
MUTATED = ["t^-2", "periodic q=3 lexmin", "d=2 q=2 r:1/3,2/3 seeded-random"]


def _mutants(doc: dict, rng: random.Random):
    """(name, document) pairs, each changing one field of doc: ell, a
    stage's i, j, width, status or one b entry, one gamma digit (in the
    stage that fixed it and in the prefix alike), and huge i or width on
    the last stage."""
    q = doc["q"]
    flat = doc["d"] == 1

    def changed(path, value):
        out = copy.deepcopy(doc)
        *head, key = path
        node = out
        for part in head:
            node = node[part]
        node[key] = value
        return out

    for ell in {doc["ell"] - 1, doc["ell"] + 1, 0}:
        yield f"ell={ell}", changed(["ell"], ell)
    last = len(doc["stages"]) - 1
    yield "huge i", changed(["stages", last, "i"], HUGE)
    yield "huge width", changed(["stages", last, "width"], HUGE)
    for m, st in enumerate(doc["stages"]):
        for delta in (-1, 1, rng.randrange(2, 6)):
            yield f"stage {m} i{delta:+d}", changed(["stages", m, "i"], st["i"] + delta)
            yield f"stage {m} width{delta:+d}", changed(["stages", m, "width"], st["width"] + delta)
            if st["j"] is not None:
                yield f"stage {m} j{delta:+d}", changed(["stages", m, "j"], st["j"] + delta)
        if st["j"] is not None:
            yield f"stage {m} j=None", changed(["stages", m, "j"], None)
        for status in {"found", "infinite", "cutoff"} - {st["status"]}:
            yield f"stage {m} status={status}", changed(["stages", m, "status"], status)
        k = rng.randrange(len(st["b"]))
        yield f"stage {m} b[{k}]", changed(["stages", m, "b", k],
                                          (st["b"][k] + rng.randrange(1, q)) % q)
    # a gamma digit, changed where the stage fixed it and in the prefix
    s = rng.randrange(doc["d"])
    prefix = doc["gamma_prefix"] if flat else doc["gamma_prefix"][s]
    k = rng.randrange(len(prefix))
    new = (prefix[k] + rng.randrange(1, q)) % q
    out = changed(["gamma_prefix", k] if flat else ["gamma_prefix", s, k], new)
    seen = 0
    for st in out["stages"]:
        digits = st["gamma_digits"] if flat else st["gamma_digits"][s]
        if seen <= k < seen + len(digits):
            digits[k - seen] = new
        seen += len(digits)
    yield f"gamma digit {s},{k}", out


@pytest.mark.parametrize("label", MUTATED)
def test_certificate_mutants_are_rejected_or_still_true(label):
    """A mutant that parses and verifies must still state a true bound:
    no N of degree below the last stage's width comes closer than
    q^-(1+ell), with ell as the mutant states it.  Rejection is a
    CertificateFormatError or a failed check; a width past theta's data
    fails the row shape check."""
    doc = next(c["certificate"] for c in CASES if c["label"] == label)
    rejected = set()
    for name, mutant in _mutants(doc, random.Random(label)):
        assert mutant != doc, name
        try:
            cert = Certificate.from_json(mutant)
            ok = verify_certificate(cert).ok
        except CertificateFormatError:
            ok = False
        if not ok:
            rejected.add(name)
            continue
        rep = c_depth_weighted(cert.theta, cert.gamma_series(), cert.weight,
                               cert.stages[-1].width - 1)
        assert rep.value is None or rep.value >= qexp(-(1 + cert.ell)), name
    assert {"huge i", "huge width", "ell=0"} <= rejected

