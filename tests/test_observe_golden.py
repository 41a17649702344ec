"""Cross-commit oracle for the observability artifacts.

Pins the sha256 of the two canonical artifacts the observability plane
produces with default arguments and seed 0: the telemetry JSON printed by
``repro observe --json`` and the windowed JSONL written by
``repro flight record``. Both are byte-deterministic for a fixed seed, so
any change to what the observers record -- a span renamed, a counter
dropped, a cost unit charged twice -- moves a hash. The CLI smoke jobs
only compare two runs of one commit; this test compares against the
artifacts of the commit that introduced it.
"""

import hashlib

from repro.cli import main

OBSERVE_JSON_SHA256 = (
    "abc0775ef8039fa6ace70ca08f0672e64cc753b2eecbf98657acf4a578b0cb4c"
)
FLIGHT_JSONL_SHA256 = (
    "a35b30c37654cceb2b97b7e088ce393f1ec78d571019d52cd0a136cf196bd3f7"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_observe_json_artifact_is_pinned(capsys):
    assert main(["observe", "--json", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode("utf-8")) == OBSERVE_JSON_SHA256


def test_flight_jsonl_artifact_is_pinned(tmp_path, capsys):
    path = tmp_path / "flight.jsonl"
    assert main(["flight", "record", "--out", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == FLIGHT_JSONL_SHA256
