"""Tests for fingerprinted, append-only checkpoint journals."""

import errno
import functools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.robust import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    FingerprintMismatch,
    corrupt_checkpoint,
    fingerprint,
)


class TestFingerprint:
    def test_stable(self):
        assert fingerprint({"a": 1}) == fingerprint({"a": 1})

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_payload_sensitive(self):
        assert fingerprint({"seed": 1}) != fingerprint({"seed": 2})

    def test_folds_in_schema_versions(self, monkeypatch):
        before = fingerprint({"a": 1})
        import repro.robust.checkpoint as mod

        monkeypatch.setattr(mod, "CODE_SCHEMA_VERSION", 999)
        assert fingerprint({"a": 1}) != before


class TestCheckpointLifecycle:
    def test_fresh_checkpoint_written_immediately(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = Checkpoint.open(path, fingerprint({"x": 1}), meta={"driver": "t"})
        assert path.exists()
        assert ck.n_done == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["meta"] == {"driver": "t"}

    def test_record_and_get(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "ck.jsonl", fingerprint({}))
        assert ck.get("cell/0") is None
        ck.record("cell/0", {"value": 1.5})
        assert ck.get("cell/0") == {"value": 1.5}
        assert ck.n_done == 1
        assert ck.done_keys == ["cell/0"]

    def test_reopen_restores_records(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({"cfg": 3})
        ck = Checkpoint.open(path, fp)
        ck.record("a", [1, 2])
        ck.record("b", {"nested": True})
        again = Checkpoint.open(path, fp)
        assert again.get("a") == [1, 2]
        assert again.get("b") == {"nested": True}
        assert again.n_done == 2

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({})
        values = [0.1 + 0.2, 1e-300, 136.3032690499477, 3.141592653589793]
        Checkpoint.open(path, fp).record("vals", values)
        assert Checkpoint.open(path, fp).get("vals") == values

    def test_fingerprint_mismatch_hard_errors(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Checkpoint.open(path, fingerprint({"seed": 1})).record("k", 0)
        with pytest.raises(FingerprintMismatch):
            Checkpoint.open(path, fingerprint({"seed": 2}))

    def test_require_existing(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            Checkpoint.open(
                tmp_path / "missing.jsonl", fingerprint({}),
                require_existing=True,
            )

    def test_scoped_view_shares_file(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "ck.jsonl", fingerprint({}))
        scoped = ck.scoped("wl/")
        scoped.record("cell/0", 42)
        assert ck.get("wl/cell/0") == 42
        assert scoped.get("cell/0") == 42
        nested = scoped.scoped("inner/")
        nested.record("x", 1)
        assert ck.get("wl/inner/x") == 1

    def test_no_staging_residue(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "ck.jsonl", fingerprint({}))
        ck.record("k", 1)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.jsonl"]


class TestJournal:
    """One appended, fsynced line per record; the file is never rewritten
    except to create it or to repair a torn tail on open."""

    def test_record_appends_without_touching_earlier_bytes(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = Checkpoint.open(path, fingerprint({}))
        for i in range(3):
            before = path.read_bytes()
            ck.record(f"cell/{i}", {"i": i, "xs": [0.1] * i})
            after = path.read_bytes()
            assert after.startswith(before)
            appended = json.loads(after[len(before):])
            assert appended == {
                "kind": "entry", "key": f"cell/{i}",
                "payload": {"i": i, "xs": [0.1] * i},
            }
        assert [p.name for p in tmp_path.iterdir()] == ["ck.jsonl"]

    def test_rerecorded_key_reopens_with_last_payload(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({})
        ck = Checkpoint.open(path, fp)
        ck.record("a", 1)
        ck.record("b", 2)
        ck.record("a", 3)
        again = Checkpoint.open(path, fp)
        # First position, last payload: exactly the in-memory dict.
        assert again.done_keys == ck.done_keys == ["a", "b"]
        assert again.get("a") == ck.get("a") == 3

    def test_file_in_the_rewrite_era_layout_resumes(self, tmp_path):
        """Files written whole (header + entries, one per line) are the
        same format: they load, and appends extend them."""
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({"legacy": True})
        lines = [
            {"schema": CHECKPOINT_SCHEMA, "kind": "header",
             "fingerprint": fp, "meta": {"driver": "sweep"}},
            {"kind": "entry", "key": "cell/0", "payload": [1.5, 2]},
        ]
        path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in lines) + "\n"
        )
        before = path.read_bytes()
        ck = Checkpoint.open(path, fp)
        assert ck.meta == {"driver": "sweep"}
        assert ck.get("cell/0") == [1.5, 2]
        ck.record("cell/1", None)
        assert path.read_bytes().startswith(before)
        assert Checkpoint.open(path, fp).done_keys == ["cell/0", "cell/1"]

    @pytest.mark.parametrize("fault", ["fsync", "write", "short-write"])
    def test_failed_append_is_harmless(self, tmp_path, monkeypatch, fault):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({})
        ck = Checkpoint.open(path, fp)
        ck.record("kept", {"v": 1})
        size = path.stat().st_size

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        real_write = os.write
        wrote = []

        def short_write(fd, data):
            # Half the bytes land, then the disk fills: the fragment
            # must be truncated away.
            if wrote:
                full_disk()
            wrote.append(len(data) // 2)
            return real_write(fd, bytes(data[: len(data) // 2]))

        with monkeypatch.context() as patched:
            if fault == "fsync":
                patched.setattr(os, "fsync", full_disk)
            elif fault == "write":
                patched.setattr(os, "write", full_disk)
            else:
                patched.setattr(os, "write", short_write)
            with pytest.raises(OSError):
                ck.record("lost", {"v": 2})
        assert ck.get("lost") is None
        assert ck.done_keys == ["kept"]
        assert path.stat().st_size == size
        assert Checkpoint.open(path, fp).done_keys == ["kept"]
        ck.record("lost", {"v": 2})
        assert Checkpoint.open(path, fp).get("lost") == {"v": 2}

    def test_unserializable_payload_records_nothing(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = Checkpoint.open(path, fingerprint({}))
        size = path.stat().st_size
        with pytest.raises(TypeError):
            ck.record("bad", object())
        assert ck.get("bad") is None
        assert path.stat().st_size == size

    def test_line_missing_only_its_newline_is_repaired(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({})
        ck = Checkpoint.open(path, fp)
        ck.record("a", 1)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        ck = Checkpoint.open(path, fp)
        assert ck.done_keys == ["a"]
        ck.record("b", 2)
        assert Checkpoint.open(path, fp).done_keys == ["a", "b"]


_JOURNAL_FP = fingerprint({"journal": "truncation"})


@functools.cache
def _journal() -> tuple[bytes, int, list[tuple[int, str, object]]]:
    """A multi-record journal as bytes, the header line's length, and
    each record's (end offset, key, payload) in file order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jsonl"
        ck = Checkpoint.open(path, _JOURNAL_FP, meta={"m": "ü"})
        records = [
            ("cell/0", {"ratio": 0.1 + 0.2}),
            ("cell/1", [1, 2, 3]),
            ("cell/0", {"ratio": 1e-300}),  # re-recorded key
            ("advance:00000001", {"events": [], "delta": {"changed": {}}}),
            ("cell/2", "text \u2028 with a separator"),
        ]
        for key, payload in records:
            ck.record(key, payload)
        data = path.read_bytes()
    lines = data.split(b"\n")
    header_len = len(lines[0])
    ends, offset = [], header_len + 1
    for (key, payload), line in zip(records, lines[1:]):
        ends.append((offset + len(line), key, payload))
        offset += len(line) + 1
    return data, header_len, ends


@given(data=st.data())
def test_truncated_journal_reopens_to_a_prefix(data):
    """A crash can cut the file at any byte: reopening yields the records
    wholly before the cut, or CheckpointError when the header is torn —
    and one more record then reopens to that prefix plus the new one."""
    journal, header_len, record_ends = _journal()
    cut = data.draw(st.integers(min_value=0, max_value=len(journal)), "cut")
    expected: dict = {}
    for end, key, payload in record_ends:
        if end <= cut:
            expected[key] = payload
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jsonl"
        path.write_bytes(journal[:cut])
        if cut < header_len:
            with pytest.raises(CheckpointError):
                Checkpoint.open(path, _JOURNAL_FP)
            return
        ck = Checkpoint.open(path, _JOURNAL_FP)
        assert ck.meta == {"m": "ü"}
        assert list(ck.done_keys) == list(expected)
        assert all(ck.get(k) == v for k, v in expected.items())
        ck.record("after", {"cut": cut})
        expected["after"] = {"cut": cut}
        again = Checkpoint.open(path, _JOURNAL_FP)
        assert list(again.done_keys) == list(expected)
        assert all(again.get(k) == v for k, v in expected.items())


class TestDamageTolerance:
    def _fresh(self, tmp_path, n_records=3):
        path = tmp_path / "ck.jsonl"
        fp = fingerprint({"damage": True})
        ck = Checkpoint.open(path, fp)
        for i in range(n_records):
            ck.record(f"cell/{i}", {"i": i})
        return path, fp

    def test_torn_trailing_line_dropped(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        corrupt_checkpoint(path, line=3, how="truncate")
        ck = Checkpoint.open(path, fp)
        # The torn record's work is simply redone; the rest survives.
        assert ck.n_done == 2
        assert ck.get("cell/2") is None
        assert ck.get("cell/1") == {"i": 1}

    def test_interior_garbage_rejected(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        corrupt_checkpoint(path, line=1, how="garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            Checkpoint.open(path, fp)

    def test_interior_truncation_rejected(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        corrupt_checkpoint(path, line=2, how="truncate")
        with pytest.raises(CheckpointError):
            Checkpoint.open(path, fp)

    def test_damaged_header_rejected(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        corrupt_checkpoint(path, line=0, how="garbage")
        with pytest.raises(CheckpointError):
            Checkpoint.open(path, fp)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(CheckpointError, match="not a checkpoint header"):
            Checkpoint.open(path, fingerprint({}))

    def test_undecodable_bytes_rejected(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        path.write_bytes(path.read_bytes() + b"\xff\xfe torn\n")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.open(path, fp)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            Checkpoint.open(path, fingerprint({}))

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"schema": 99, "kind": "header", "fingerprint": "f", "meta": {}}
            )
            + "\n"
        )
        with pytest.raises(CheckpointError, match="schema"):
            Checkpoint.open(path, fingerprint({}))

    def test_corrupt_helper_validates_args(self, tmp_path):
        path, _ = self._fresh(tmp_path, n_records=1)
        with pytest.raises(IndexError):
            corrupt_checkpoint(path, line=10)
        with pytest.raises(ValueError):
            corrupt_checkpoint(path, line=0, how="nonsense")
