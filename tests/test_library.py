"""Tests for content-addressed pulse storage."""

import json

import pytest

from fockpulse import (
    CompositePulse,
    PulseParams,
    SystemConfig,
    find_entry,
    load_entry,
    save_entry,
)
from fockpulse.library import PulseLibraryEntry, entry_id


def _entry(t: float = 100.0) -> PulseLibraryEntry:
    pulse = CompositePulse(
        pulses=(
            PulseParams(delta=1.0, omega=0.1, phi=0.0, t=t),
            PulseParams(delta=1.0, omega=0.1, phi=0.95, t=2 * t),
        )
    )
    return PulseLibraryEntry(
        system=SystemConfig(cutoff=4),
        target="swap(0)",
        pulse=pulse,
        loss=0.125,
        meta={"note": "unit test"},
    )


def test_round_trip_preserves_exact_values(tmp_path):
    entry = _entry(t=264.46183827)
    path = save_entry(entry, tmp_path)
    loaded = load_entry(path)
    assert loaded.system == entry.system
    assert loaded.target == entry.target
    assert loaded.loss == entry.loss
    assert loaded.meta == entry.meta
    for a, b in zip(loaded.pulse, entry.pulse):
        assert (a.delta, a.omega, a.phi, a.t) == (b.delta, b.omega, b.phi, b.t)


def test_id_depends_on_content_not_metadata():
    a = _entry()
    b = _entry()
    b.meta = {"note": "different metadata"}
    b.loss = 0.5
    assert a.id == b.id

    c = _entry(t=101.0)
    assert c.id != a.id
    assert len(a.id) == 16
    assert entry_id(a.system, a.target, a.pulse) == a.id


def test_save_is_idempotent(tmp_path):
    entry = _entry()
    first = save_entry(entry, tmp_path)
    stamp = first.read_bytes()
    second = save_entry(entry, tmp_path)
    assert first == second
    assert second.read_bytes() == stamp  # no churn on rewrite


def test_find_entry_resolves_abbreviations(tmp_path):
    entry = _entry()
    path = save_entry(entry, tmp_path)
    assert find_entry(tmp_path, entry.id) == path
    assert find_entry(tmp_path, entry.id[:6]) == path
    with pytest.raises(FileNotFoundError, match="no pulse"):
        find_entry(tmp_path, "ffff")


@pytest.mark.parametrize(
    "key", ["", "?", "[0-9a-f]", "**", "sub/{prefix}", "ABC", "0" * 17]
)
def test_find_entry_accepts_only_hex_prefixes(tmp_path, key):
    entry = _entry()
    save_entry(entry, tmp_path)
    save_entry(entry, tmp_path / "sub")
    with pytest.raises(ValueError, match="1 to 16 lowercase hex digits"):
        find_entry(tmp_path, key.format(prefix=entry.id[:6]))


def test_find_entry_rejects_ambiguous_prefix(tmp_path):
    first = _entry()
    save_entry(first, tmp_path)
    # craft a second id sharing the first character by brute force
    t = 150.0
    while True:
        other = _entry(t=t)
        if other.id[0] == first.id[0] and other.id != first.id:
            break
        t += 1.0
    save_entry(other, tmp_path)
    with pytest.raises(ValueError, match="ambiguous"):
        find_entry(tmp_path, first.id[0])


def test_load_rejects_wrong_version_and_corruption(tmp_path):
    entry = _entry()
    path = save_entry(entry, tmp_path)

    document = json.loads(path.read_text())
    document["version"] = 99
    bad_version = tmp_path / "bad_version.json"
    bad_version.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="schema version"):
        load_entry(bad_version)

    document = json.loads(path.read_text())
    document["pulses"][0]["t"] = 12345.0  # content no longer matches the id
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="corrupt"):
        load_entry(corrupt)


@pytest.mark.parametrize("key", ["system", "pulses", "target", "loss"])
def test_load_names_the_file_and_a_missing_field(tmp_path, key):
    path = save_entry(_entry(), tmp_path)
    document = json.loads(path.read_text())
    del document[key]
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match=f"{path.name}.* has no '{key}' field"):
        load_entry(path)
    path.write_text(json.dumps([document]))
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_entry(path)


@pytest.mark.parametrize("target", [5, None, {"a": 1}])
def test_load_requires_a_string_target(tmp_path, target):
    entry = _entry()
    path = save_entry(entry, tmp_path)
    document = json.loads(path.read_text())
    document["target"] = target
    # the stored id matches the content, so only the target check can fail
    document["id"] = entry_id(entry.system, target, entry.pulse)
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="'target' must be a string"):
        load_entry(path)
