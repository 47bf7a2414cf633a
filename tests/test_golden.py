"""Certificates reproduce stored reference output byte for byte.

golden_certificates.json holds certificates built by the rref-based
annihilator that the one-pass tagged kernel replaced: the t^-2 example,
seeded windows over q = 2, 3, 9 under both digit policies (one with
ell = 2), a periodic theta whose walk ends on a certified plateau, and
d = 2 windows under the equal and r:1/3,2/3 weights.  Each entry stores
the stage budget; theta, weight, ell and policy come from the certificate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ffba import Certificate, gamma_prefix, verify_certificate

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
