"""``repro.jsonl``: the one crash-safe JSON-lines primitive."""

import os

import pytest

from repro.dse.journal import SearchJournal
from repro.jsonl import append_record, read_records


def test_fsync_only_when_asked_and_on_every_journal_append(tmp_path,
                                                           monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                 real_fsync(fd)))
    append_record(tmp_path / "a.jsonl", {"i": 1})
    assert synced == []
    append_record(tmp_path / "a.jsonl", {"i": 2}, fsync=True)
    assert len(synced) == 1
    journal = SearchJournal(tmp_path / "journal.jsonl")
    journal.ensure_header({"strategy": "grid"})
    journal.append_eval("k", {}, {}, {})
    assert len(synced) == 3


def test_errors_name_the_record_kind(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"i": 1}\n{"i"\n{"i": 3}\n')
    with pytest.raises(ValueError, match="corrupt job line 2"):
        read_records(path, "job")

