"""Golden digests: solver output pinned across commits.

Criterion 8 compares two runs of the same code; these pins catch a
change that alters state numbering, ``states_explored``, certificate
contents or power payloads in both runs alike.  Recompute a pin only
for a change that means to alter that output.
"""

import hashlib
import itertools
import json

import wlpower as wl

POWER_SHA256 = {
    "local_1fwl": "fd32e40b3fca1f36c76683cf9567c3d2442e97d16ee2cb77b858bbfe0289136a",
    "2fwl": "45621e9d8034979f94bc50dc534e99efa29f54d0dd67f78dc22f0d8b15036cfb",
    "local_2fwl": "52e159d813d013a666bb77b179e700023400d1d0658a579584c9960e78ebe602",
    "drfwl2_1": "fc46fb5c677cd1f80adbaaa805d324d89d98ba3cb9b9c9c2cb6b836bf9289483",
}
COPS_FWL2_N5_SHA256 = "463ce0f7e61ee63b6530316bb4e307d413179513cc42054ca26af8f8b390c7a0"
SPOILER_FWL2_N4_SHA256 = "9bf1867723656b348ecdba83b6cdc64937ebefc68fc19875cfce9e4cc7129378"


def verdicts_digest(verdicts) -> str:
    """SHA-256 over each verdict's sorted-key JSON, certificate included."""
    digest = hashlib.sha256()
    for verdict in verdicts:
        record = verdict.to_json_dict(include_certificate=True)
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_power_payload_digests():
    for name, spec in wl.BUILTIN_SPECS.items():
        payload = wl.enumerate_power(spec, 5).payload_bytes()
        assert hashlib.sha256(payload).hexdigest() == POWER_SHA256[name], name


def test_pursuit_certificate_digest(classes5):
    spec = wl.fwl_spec(2)
    digest = verdicts_digest(wl.cops_robber_wins(spec, g) for g in classes5)
    assert digest == COPS_FWL2_N5_SHA256


def test_bijection_certificate_digest(classes4):
    spec = wl.fwl_spec(2)
    pairs = itertools.combinations(classes4, 2)
    digest = verdicts_digest(wl.spoiler_wins(spec, g, h) for g, h in pairs)
    assert digest == SPOILER_FWL2_N4_SHA256
