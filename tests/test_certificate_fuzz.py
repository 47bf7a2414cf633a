"""Malformed certificates raise FfbaError, never another exception.

Every scalar leaf of every golden certificate (the first three entries of
each list) is replaced in turn by each of a few wrong values: a float, a
bool, null, a string, a list, an object, -1 and 256.  Reading and
re-verifying each of these documents may refuse it or report a failed
check, but only ever through FfbaError (CertificateFormatError and its
kin); a KeyError, TypeError or IndexError escaping would be a traceback
at `ffba certificate-check`.  A document that is accepted must be read as
what it says.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
import sys
from pathlib import Path

from ffba import Certificate, FfbaError, verify_certificate
from ffba.cli import main

CASES = json.loads(Path(__file__).with_name("golden_certificates.json").read_text())
WRONG = (1.5, True, None, "x", [], {}, -1, 256)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node[:3]):
            yield from _leaves(value, path + (k,))
    else:
        yield path


def _mutants():
    """(label, document) for every leaf of every golden certificate and
    every wrong value."""
    for case in CASES:
        doc = case["certificate"]
        for path in _leaves(doc):
            for value in WRONG:
                out = copy.deepcopy(doc)
                node = out
                for part in path[:-1]:
                    node = node[part]
                node[path[-1]] = value
                yield f"{case['label']} {list(path)} = {value!r}", out


def _outcome(doc) -> str:
    """'error' (refused with FfbaError), 'fail' (a check failed) or 'ok';
    any other exception propagates."""
    try:
        return "ok" if verify_certificate(Certificate.from_json(doc)).ok else "fail"
    except FfbaError:
        return "error"


def test_every_mutated_certificate_raises_only_ffba_errors():
    seen = 0
    for label, doc in _mutants():
        try:
            _outcome(doc)
        except Exception as exc:  # the assertion names the document
            raise AssertionError(f"{label}: {type(exc).__name__}: {exc}") from exc
        seen += 1
    assert seen == 4688


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def test_every_accepted_certificate_reads_as_written():
    """A mutant that from_json accepts re-serializes to the same sorted-key
    JSON text, numbers its stages by position, names the lexmin or a
    seeded-random:<int> policy, and holds no bool where an int is meant;
    a document without a policy reads as lexmin."""
    accepted = 0
    for label, doc in _mutants():
        try:
            cert = Certificate.from_json(doc)
        except FfbaError:
            continue
        accepted += 1
        assert json.dumps(cert.to_json(), sort_keys=True) == json.dumps(doc, sort_keys=True), label
        assert [st.m for st in cert.stages] == list(range(len(cert.stages))), label
        assert re.fullmatch(r"lexmin|seeded-random:-?[0-9]+", cert.policy), label
        assert not any(type(_at(doc, path)) is bool for path in _leaves(doc)
                       if path != ("truncated",)), label
    assert accepted >= 200
    doc = copy.deepcopy(CASES[0]["certificate"])
    del doc["policy"]
    assert Certificate.from_json(doc).policy == "lexmin"


def test_certificate_check_exits_1_or_2_without_a_traceback():
    rng = random.Random(23)
    mutants = [m for m in _mutants() if rng.random() < 0.005]
    checked = 0
    for label, doc in mutants:
        want = _outcome(doc)
        if want == "ok":
            continue
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(json.dumps(doc))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["certificate-check", "--file", "-"])
        finally:
            sys.stdin = saved
        assert rc == (1 if want == "error" else 2), label
        assert "Traceback" not in err.getvalue(), label
        checked += 1
    assert checked >= 15
