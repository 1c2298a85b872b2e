"""Golden digests: solver output pinned across commits.

Criterion 8 compares two runs of the same code; these pins catch a
change that alters state numbering, ``states_explored``, certificate
contents or power payloads in both runs alike.  Recompute a pin only
for a change that means to alter that output.
"""

import hashlib
import itertools
import json

import pytest

import wlpower as wl
import wlpower.cli as cli

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


# SHA-256 of ``to_json_dict()`` of the refinement-side validation
# suites, computed before they moved from pairwise refinement to one
# joint run per class set.
SOUNDNESS_SHA256 = {
    # 3 undistinguished pairs among the 10,153 n<=6 pairs.
    ("local_1fwl", 6, 6): "08e5257d7ac2c1829a05b42c715d3977bdf0684416e4601bdf872e5b6a6e0fa0",
    ("2fwl", 5, 6): "7a1e5fb2fb0d5aa77fa12d68d4ef8846c82fc5b4845ec6177ecff303fb3041c0",
}
THEOREM2_SHA256 = {
    ("local_1fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("2fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("local_2fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("drfwl2_1", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("local_1fwl", 5): "241de5ac35445036e66361936350f89c45822be975cdafc899b936ab43112bd4",
}


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, n_pairs, n_patterns", sorted(SOUNDNESS_SHA256))
def test_soundness_report_digests(name, n_pairs, n_patterns):
    report = wl.validate_soundness(wl.BUILTIN_SPECS[name], n_pairs, n_patterns)
    assert report_digest(report) == SOUNDNESS_SHA256[(name, n_pairs, n_patterns)]


@pytest.mark.parametrize("name, n_max", sorted(THEOREM2_SHA256))
def test_theorem2_report_digests(name, n_max):
    report = wl.validate_theorem2(wl.BUILTIN_SPECS[name], n_max, seed=7)
    assert report_digest(report) == THEOREM2_SHA256[(name, n_max)]


# One argv per CLI command and per validate suite (at 3 nodes), with the
# SHA-256 of its payload's sorted-key JSON and its cache key: the key of
# an uncached command is None.  A cache written by an earlier build
# still hits as long as these hold.
CLI_GOLDEN = {
    "distinguish": (
        ["distinguish", "--spec", "fwl_k", "--g", "EhEG", "--h", "EwCW"],
        "1beb98fc98f3a6d07e637beb1073300b7047395c0b2be20cde5dfd4af545c325",
        "2d7430290af58f46926b6ca4e2d939f624bf6b449ce87126ce519c04a4128fdf",
    ),
    "cops": (
        ["cops", "--spec", "fwl_k", "--g", "C~"],
        "7f5ec3210e4bbb8c570a911fbc8f6d1d919053d67083a6561fe49abaeaf2e9d7",
        "f0a7e8dbd8de85256580dc4ae8dcc143ef285772cc22f8a340a35e18e0fe4553",
    ),
    "ef": (
        ["ef", "--spec", "fwl_k", "--g", "EhEG", "--h", "EwCW"],
        "3c5d0d763cf3b2ea6fca5a16be4b931e92f438ab63ca63d01b3d5dfa8e3e4139",
        "ef22356ef9180a8b6f42c948dc725176eebb5fb96d9f4b50c609c76a28a9a483",
    ),
    "hom": (
        ["hom", "--pattern", "EhEG", "--target", "Bw"],
        "1aac9fdb02f8a87e17f108053b7c9fe9caa5bf60f11dadbbb692b020edae98ad",
        "9f666f0b4ff0d44c12335204b1e21c94391fd04a2c18f19f12229be5cfebddb8",
    ),
    "power": (
        ["power", "--spec", "fwl_k", "--max-nodes", "4"],
        "7e40e9ffec4401c447248c71ece8c2ee42e4ed52bef9457db394107eccb54617",
        "87ee9de164248a60b4a822baae9613c56c2d39e540c73ba7903180cf6df4a68b",
    ),
    "validate-treewidth": (
        ["validate", "--suite", "treewidth", "--k", "2", "--max-nodes", "3"],
        "862c2c6454234d3c9aba4c860347feaccacd01bf7cfd77b3a187a0a41f1b35d5",
        None,
    ),
    "validate-theorem2": (
        ["validate", "--suite", "theorem2", "--spec", "fwl_k", "--max-nodes", "3"],
        "8d705ef99caa7accff481368e12f2221bbd2d79e0c9a0a0949e9273d504d7bb6",
        None,
    ),
    "validate-soundness": (
        ["validate", "--suite", "soundness", "--spec", "fwl_k", "--max-nodes", "3"],
        "e36c45d9903c55dd3ec3eee4b1e0a3c92be2a1905b5af6729e42c2b355a080cf",
        None,
    ),
    "validate-monotonicity": (
        [
            "validate", "--suite", "monotonicity", "--spec-small", "drfwl2_delta",
            "--spec-large", "fwl_k", "--max-nodes", "3",
        ],
        "6184a8ceb1779e97d04a7646f8f09b9e6715e0843aada82196a1b4d707882e09",
        None,
    ),
    "validate-hom_closed": (
        ["validate", "--suite", "hom_closed", "--spec", "local_fwl_k", "--max-nodes", "3"],
        "4b1a5d090790a7ce585b477190731a582526135d3db4e7152a57986c64c79a32",
        None,
    ),
}


@pytest.fixture
def no_cache_env(monkeypatch):
    monkeypatch.delenv("WLPOWER_CACHE", raising=False)


@pytest.mark.parametrize("name", CLI_GOLDEN)
def test_cli_payload_and_cache_key_digests(name, tmp_path, no_cache_env):
    argv, payload_sha256, key = CLI_GOLDEN[name]
    cache, out = tmp_path / "cache", tmp_path / "out.json"
    assert cli.main(argv + ["--cache-dir", str(cache), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == payload_sha256
    keys = [p.stem for p in cache.glob("*.json")]
    assert keys == ([key] if key else [])


def test_cache_miss_loads_each_input_once(tmp_path, monkeypatch, no_cache_env):
    calls = {"load_spec": 0, "load_graph": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(value):
            calls[name] += 1
            return original(value)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    argv, _, _ = CLI_GOLDEN["distinguish"]
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["telemetry"]["cache"] == "miss"
    assert calls == {"load_spec": 1, "load_graph": 2}
