"""Checkpoint journals take no lock: one writer per journal, no sidecar."""

from repro.parallel import CheckpointJournal


class TestJournalLock:
    def test_unlocked_journal_unchanged(self, tmp_path):
        j = CheckpointJournal(tmp_path / "j.jsonl")
        j.record("fp1", 1.5)
        j.close()
        assert not (tmp_path / "j.jsonl.lock").exists()
