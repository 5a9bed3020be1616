"""Unit tests of the crash-safe job journal (repro.service.journal)."""

from __future__ import annotations

import dataclasses

from repro.service import JobJournal, JobSpec, read_journal
from repro.service.journal import FSYNC_EVERY
from repro.service.jobs import JobOutcome


def _spec(job_id="a", seed=0):
    return JobSpec(job_id=job_id, dimacs="p cnf 1 1\n1 0\n", seed=seed)


def _outcome(job_id="a"):
    return JobOutcome(
        job_id=job_id,
        state="done",
        status="sat",
        model=[1],
        iterations=1,
        conflicts=0,
    )


class TestRoundTrip:
    def test_recovery_replays_acked_outcomes(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            for i in range(3):
                journal.record_submit(_spec(f"j{i}", seed=i))
            journal.record_start("j0")
            journal.record_retry("j1", "worker process died")
            journal.record_done(_outcome("j0"))

        reopened = JobJournal(path)
        report = reopened.recovered
        assert report.has_state
        assert sorted(report.submitted) == ["j0", "j1", "j2"]
        assert report.started == ["j0"]
        assert report.retries == {"j1": 1}
        assert set(report.outcomes) == {"j0"}
        assert report.torn_records == 0
        recovered = reopened.recovered_outcome(_spec("j0", seed=0))
        assert recovered is not None
        assert JobOutcome.from_dict(recovered) == _outcome("j0")
        assert reopened.stats.replayed == 1
        reopened.close()

    def test_missing_journal_is_empty_state(self, tmp_path):
        journal = JobJournal(str(tmp_path / "fresh.jsonl"))
        assert not journal.recovered.has_state
        assert journal.recovered_outcome(_spec()) is None
        journal.close()

    def test_changed_spec_does_not_replay_stale_outcome(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            journal.record_submit(_spec("a", seed=0))
            journal.record_done(_outcome("a"))
        reopened = JobJournal(path)
        # Same id, different options: the journaled result is stale.
        assert reopened.recovered_outcome(_spec("a", seed=99)) is None
        assert reopened.stats.replayed == 0
        # The original spec still replays.
        assert reopened.recovered_outcome(_spec("a", seed=0)) is not None
        reopened.close()


class TestTornTail:
    def _journal_bytes(self, tmp_path, dones=3):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            for i in range(dones):
                journal.record_submit(_spec(f"j{i}", seed=i))
                journal.record_done(_outcome(f"j{i}"))
        with open(path, "rb") as handle:
            return path, handle.read()

    def test_truncated_tail_is_dropped_and_truncated_on_open(self, tmp_path):
        path, pristine = self._journal_bytes(tmp_path)
        with open(path, "wb") as handle:
            handle.write(pristine[: len(pristine) - 7])
        journal = JobJournal(path)
        # The final record was torn; every earlier record survives.
        assert journal.stats.torn_records == 1
        assert len(journal.recovered.outcomes) == 2
        journal.close()
        # Open truncated the torn tail away: the file is valid again.
        records, valid_len, torn = read_journal(path)
        assert torn == 0
        assert len(records) == journal.recovered.valid_records

    def test_bit_flip_invalidates_record_and_suffix(self, tmp_path):
        path, pristine = self._journal_bytes(tmp_path)
        flip_at = len(pristine) // 3
        mutated = (
            pristine[:flip_at]
            + bytes([pristine[flip_at] ^ 0x5A])
            + pristine[flip_at + 1:]
        )
        with open(path, "wb") as handle:
            handle.write(mutated)
        records, valid_len, torn = read_journal(path)
        # Prefix validation: nothing after the flipped record is
        # trusted, and the checksum catches the flip even when the
        # line still parses as JSON.
        assert torn >= 1
        assert valid_len <= flip_at
        assert all(r["k"] in ("submit", "done") for r in records)

    def test_appends_after_recovery_continue_the_valid_prefix(self, tmp_path):
        path, pristine = self._journal_bytes(tmp_path)
        with open(path, "wb") as handle:
            handle.write(pristine[: len(pristine) - 3])
        with JobJournal(path) as journal:
            journal.record_done(_outcome("late"))
        records, _, torn = read_journal(path)
        assert torn == 0
        assert records[-1]["k"] == "done"
        assert records[-1]["outcome"]["job_id"] == "late"


class TestDurability:
    def test_done_records_are_fsynced_immediately(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        before = journal.stats.fsyncs
        journal.record_done(_outcome("a"))
        assert journal.stats.fsyncs == before + 1
        journal.close()

    def test_submit_records_are_batched(self, tmp_path):
        assert FSYNC_EVERY == 8
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        for i in range(7):
            journal.record_submit(_spec(f"j{i}", seed=i))
        assert journal.stats.fsyncs == 0
        journal.record_submit(_spec("j7", seed=7))
        assert journal.stats.fsyncs == 1
        journal.close()

    def test_stats_count_records_by_kind(self, tmp_path):
        with JobJournal(str(tmp_path / "journal.jsonl")) as journal:
            journal.record_submit(_spec())
            journal.record_start("a")
            journal.record_retry("a", "chaos")
            journal.record_done(_outcome())
            assert journal.stats.records_by_kind == {
                "submit": 1,
                "start": 1,
                "retry": 1,
                "done": 1,
            }
