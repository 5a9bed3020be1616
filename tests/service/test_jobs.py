"""JobSpec/JobOutcome schema, solve keys, and the worker entry point."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.annealer import AnnealerDevice
from repro.resilience import ResilientDevice
from repro.sat import fingerprint
from repro.service import JobOutcome, JobSpec, build_device, run_job

SAT_DIMACS = "p cnf 3 2\n1 2 3 0\n-1 2 3 0\n"
#: Same clauses, different clause order and literal order.
SAT_DIMACS_SHUFFLED = "p cnf 3 2\n3 2 -1 0\n2 1 3 0\n"


class TestJobSpecValidation:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="a")
        with pytest.raises(ValueError):
            JobSpec(job_id="a", path="x.cnf", dimacs=SAT_DIMACS)

    def test_rejects_unknown_priority(self):
        with pytest.raises(ValueError, match="priority"):
            JobSpec(job_id="a", dimacs=SAT_DIMACS, priority="urgent")

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            JobSpec(job_id="a", dimacs=SAT_DIMACS, deadline_s=0.0)

    def test_validates_fault_spec_eagerly(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="a", dimacs=SAT_DIMACS, qa_faults="bogus=0.5")
        JobSpec(job_id="a", dimacs=SAT_DIMACS, qa_faults="timeout=0.5")

    def test_priority_rank_orders_classes(self):
        ranks = [
            JobSpec(job_id=p, dimacs=SAT_DIMACS, priority=p).priority_rank
            for p in ("interactive", "batch", "background")
        ]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == 3


class TestJobSpecJson:
    def test_round_trip_omits_defaults(self):
        spec = JobSpec(job_id="a", dimacs=SAT_DIMACS)
        line = spec.to_json()
        assert "qa_retries" not in line  # default, omitted
        assert JobSpec.from_json(line) == spec

    def test_round_trip_keeps_non_defaults(self):
        spec = JobSpec(
            job_id="a",
            path="x.cnf",
            seed=9,
            priority="interactive",
            qa_faults="timeout=0.5",
            qa_budget_us=100.0,
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec.from_json('{"id": "a", "path": "x", "bogus": 1}')

    def test_rejects_missing_id(self):
        with pytest.raises(ValueError, match="id"):
            JobSpec.from_json('{"path": "x"}')

    def test_from_dict_matches_from_json_and_leaves_the_dict(self):
        job = {"id": "a", "dimacs": SAT_DIMACS, "seed": 4, "noise": True}
        before = dict(job)
        assert JobSpec.from_dict(job) == JobSpec.from_json(json.dumps(job))
        assert job == before
        job = {"job_id": "b", "path": "x.cnf"}
        assert JobSpec.from_dict(job).job_id == "b"
        assert job == {"job_id": "b", "path": "x.cnf"}

    def test_from_dict_rejects_like_from_json(self):
        for job in ({"path": "x"}, {"id": "a", "path": "x", "bogus": 1}):
            with pytest.raises(ValueError) as by_dict:
                JobSpec.from_dict(job)
            with pytest.raises(ValueError) as by_json:
                JobSpec.from_json(json.dumps(job))
            assert str(by_dict.value) == str(by_json.value)


class TestSolveKey:
    def test_clause_order_invariant(self):
        a = JobSpec(job_id="a", dimacs=SAT_DIMACS)
        b = JobSpec(job_id="b", dimacs=SAT_DIMACS_SHUFFLED)
        assert a.solve_key() == b.solve_key()

    def test_options_change_the_key(self):
        base = JobSpec(job_id="a", dimacs=SAT_DIMACS)
        for other in (
            JobSpec(job_id="b", dimacs=SAT_DIMACS, seed=1),
            JobSpec(job_id="b", dimacs=SAT_DIMACS, noise=True),
            JobSpec(job_id="b", dimacs=SAT_DIMACS, qa_faults="0.2"),
            JobSpec(job_id="b", dimacs=SAT_DIMACS, qa_budget_us=5.0),
            JobSpec(job_id="b", dimacs=SAT_DIMACS, no_resilience=True),
        ):
            assert base.solve_key() != other.solve_key()

    def test_key_carries_the_given_fingerprint(self):
        spec = JobSpec(job_id="a", dimacs=SAT_DIMACS)
        fp = fingerprint(spec.load_formula())
        key = spec.solve_key(fp)
        assert key == spec.solve_key()
        assert JobSpec.fingerprint_of(key) == fp

    def test_key_is_stable_text(self):
        # hashlib-based, so stable across processes (unlike hash()).
        key = JobSpec(job_id="a", dimacs=SAT_DIMACS).solve_key()
        assert key == JobSpec(job_id="z", dimacs=SAT_DIMACS).solve_key()
        assert ":" in key


class TestJobOutcome:
    def test_json_round_trip(self):
        outcome = JobOutcome(
            job_id="a",
            status="sat",
            model=[1, -2, 3],
            iterations=5,
            conflicts=2,
            qa_calls=3,
            qpu_time_us=420.0,
        )
        again = JobOutcome.from_json(outcome.to_json())
        assert again == outcome

    def test_as_dedup_of_copies_solver_fields(self):
        primary = JobOutcome(
            job_id="p", status="sat", model=[1], iterations=7, qa_calls=2
        )
        twin = JobOutcome(job_id="d", wait_seconds=0.5).as_dedup_of(
            primary, "d"
        )
        assert twin.state == "deduped"
        assert twin.dedup_of == "p"
        assert twin.job_id == "d"
        assert twin.status == "sat"
        assert twin.model == [1]
        assert twin.iterations == 7
        assert twin.wait_seconds == 0.5
        assert twin.run_seconds == 0.0


#: Outcomes whose dicts must equal ``dataclasses.asdict``'s: a model and
#: learned clauses, every optional field None, and a failed job.
DICT_OUTCOMES = {
    "model-learned": JobOutcome(
        job_id="m", status="sat", model=[1, -2, 3], iterations=4,
        conflicts=1, qa_calls=2, qpu_time_us=130.5, warm_clauses=3,
        learned=[[1, -2], [3]], cached=False, resumed=True,
    ),
    "none-fields": JobOutcome(job_id="n"),
    "failed": JobOutcome(job_id="f", state="failed", error="ValueError: x"),
}


class TestOutcomeDicts:
    """The dicts are built field by field, not by ``dataclasses.asdict``:
    equal to its dict, value types included, and never sharing a list
    with the outcome."""

    @staticmethod
    def typed(data):
        return [(key, type(value), value) for key, value in data.items()]

    @pytest.mark.parametrize("name", sorted(DICT_OUTCOMES))
    def test_as_dict_equals_asdict(self, name):
        outcome = DICT_OUTCOMES[name]
        assert self.typed(outcome.as_dict()) == self.typed(
            dataclasses.asdict(outcome)
        )

    @pytest.mark.parametrize("name", sorted(DICT_OUTCOMES))
    def test_to_json_equals_asdict_line(self, name):
        outcome = DICT_OUTCOMES[name]
        payload = {
            key: value
            for key, value in dataclasses.asdict(outcome).items()
            if value is not None
        }
        payload["id"] = payload.pop("job_id")
        assert outcome.to_json() == json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(DICT_OUTCOMES))
    def test_as_dedup_of_equals_asdict_copy(self, name):
        primary = DICT_OUTCOMES[name]
        expected = JobOutcome(**dataclasses.asdict(primary))
        expected.job_id, expected.dedup_of = "d", primary.job_id
        expected.state = "deduped" if primary.state == "done" else primary.state
        expected.wait_seconds, expected.run_seconds = 0.25, 0.0
        twin = JobOutcome(job_id="d", wait_seconds=0.25).as_dedup_of(primary, "d")
        assert self.typed(twin.as_dict()) == self.typed(dataclasses.asdict(expected))

    def test_returned_lists_are_copies(self):
        outcome = copy.deepcopy(DICT_OUTCOMES["model-learned"])
        data = outcome.as_dict()
        data["model"].append(9)
        data["learned"][0].append(9)
        data["learned"].append([9])
        twin = JobOutcome(job_id="d").as_dedup_of(outcome, "d")
        twin.model.append(8)
        twin.learned[1].append(8)
        assert outcome == DICT_OUTCOMES["model-learned"]

    def test_spec_as_dict_equals_asdict(self):
        spec = JobSpec(job_id="s", dimacs=SAT_DIMACS, seed=3, deadline_s=2.5)
        assert self.typed(spec.as_dict()) == self.typed(dataclasses.asdict(spec))


class TestBuildDevice:
    def test_default_stack_is_resilient(self):
        device = build_device(JobSpec(job_id="a", dimacs=SAT_DIMACS))
        assert isinstance(device, ResilientDevice)

    def test_no_resilience_is_bare(self):
        device = build_device(
            JobSpec(job_id="a", dimacs=SAT_DIMACS, no_resilience=True)
        )
        assert isinstance(device, AnnealerDevice)


class TestRunJob:
    def test_solves_inline_dimacs(self):
        outcome = run_job(JobSpec(job_id="a", dimacs=SAT_DIMACS))
        assert outcome.state == "done"
        assert outcome.status == "sat"
        assert outcome.model is not None
        assert outcome.run_seconds > 0

    def test_classic_job(self):
        outcome = run_job(JobSpec(job_id="a", dimacs=SAT_DIMACS, classic=True))
        assert outcome.state == "done"
        assert outcome.status == "sat"
        assert outcome.qa_calls == 0

    def test_never_raises_on_bad_instance(self):
        outcome = run_job(JobSpec(job_id="a", path="/nonexistent.cnf"))
        assert outcome.state == "failed"
        assert outcome.error
        assert outcome.status is None

    def test_deterministic_per_spec(self):
        spec = JobSpec(job_id="a", dimacs=SAT_DIMACS, seed=3)
        first, second = run_job(spec), run_job(spec)
        assert first.model == second.model
        assert first.iterations == second.iterations
        assert first.qa_calls == second.qa_calls
