"""Job state machine, content keys, submission dedup, event feed.

Jobs are created the way a server creates them: a :class:`LeaseStore`
submission (the durable queue row) adopted into the server's local
:class:`JobRegistry`.
"""

import sqlite3
import threading

import pytest

from repro.serve.jobs import (
    MAX_EVENTS,
    JobError,
    JobRegistry,
    JobState,
    JobStateError,
    LeaseStore,
    job_content_key,
)


@pytest.fixture
def queue(tmp_path):
    store = LeaseStore(tmp_path / "queue.sqlite", lease_s=10.0)
    yield store
    store.close()


@pytest.fixture
def registry():
    return JobRegistry()


@pytest.fixture
def new_job(queue, registry):
    """Submit ``PARAMS`` to the queue and adopt the row locally."""
    def make():
        row, _ = queue.submit("explore", PARAMS)
        return registry.adopt(row)
    return make


PARAMS = {"circuits": ["gcd"], "budgets": [6, 7]}


class TestContentKey:
    def test_deterministic(self):
        assert job_content_key("explore", PARAMS) == \
            job_content_key("explore", dict(PARAMS))

    def test_order_insensitive(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert job_content_key("explore", a) == job_content_key("explore", b)

    def test_kind_and_params_matter(self):
        assert job_content_key("explore", PARAMS) != \
            job_content_key("optimize", PARAMS)
        assert job_content_key("explore", PARAMS) != \
            job_content_key("explore", {**PARAMS, "budgets": [6]})


class TestStateMachine:
    def test_happy_path(self, registry, new_job):
        job = new_job()
        assert job.state is JobState.QUEUED
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.DONE, result={"points": 4})
        assert job.state.terminal
        assert job.result == {"points": 4}

    @pytest.mark.parametrize("terminal", [JobState.DONE, JobState.FAILED,
                                          JobState.CANCELLED])
    def test_terminal_states_are_final(self, registry, new_job, terminal):
        job = new_job()
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, terminal)
        for to in JobState:
            with pytest.raises(JobStateError):
                registry.transition(job, to)

    def test_queued_cannot_jump_to_done(self, registry, new_job):
        job = new_job()
        with pytest.raises(JobStateError):
            registry.transition(job, JobState.DONE)

    def test_failed_records_the_error(self, registry, new_job):
        job = new_job()
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.FAILED, error="boom")
        assert job.error == "boom"
        assert job.snapshot()["error"] == "boom"

    def test_unknown_job_id_is_not_found(self, registry):
        # Over HTTP this is the server's 404 (test_server.py).
        assert registry.find("j-999-deadbeef") is None


class TestSubmission:
    def test_identical_inflight_submissions_share_one_job(self, queue):
        first, created = queue.submit("explore", PARAMS)
        second, again = queue.submit("explore", dict(PARAMS))
        assert created and not again
        assert first.id == second.id

    def test_terminal_job_does_not_absorb_resubmission(self, queue):
        first, _ = queue.submit("explore", PARAMS)
        queue.claim("a")
        assert queue.finish(first.id, "a", JobState.DONE)
        second, created = queue.submit("explore", PARAMS)
        assert created and second.id != first.id
        assert second.key == first.key  # same journal -> warm rerun

    def test_unknown_kind_rejected(self, queue):
        with pytest.raises(JobError, match="unknown job kind"):
            queue.submit("frobnicate", PARAMS)

    def test_non_object_params_rejected(self, queue):
        with pytest.raises(JobError, match="params must be an object"):
            queue.submit("explore", ["gcd"])


class TestQueueDurability:
    """``queue.sqlite`` is the durable job record a restart reads back."""

    def test_restart_restores_jobs_and_ids(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        first = LeaseStore(path, lease_s=10.0)
        done, _ = first.submit("explore", PARAMS)
        first.claim("a", now=100.0)
        assert first.finish(done.id, "a", JobState.DONE,
                            result={"points": 2})
        interrupted, _ = first.submit("optimize",
                                      {"circuit": "gcd", "budgets": [6]})
        first.claim("a", now=100.0)
        first.close()  # server "a" dies here, still holding the lease

        second = LeaseStore(path, lease_s=10.0)
        try:
            restored = {row.id: row for row in second.jobs()}
            assert restored[done.id].state == "done"
            assert restored[done.id].result == {"points": 2}
            assert restored[interrupted.id].state == "running"

            # Once the dead server's lease expires, the job is re-claimed.
            revived = second.claim("b", now=200.0)
            assert revived.id == interrupted.id
            job = JobRegistry().adopt(revived)
            assert job.state is JobState.QUEUED

            # New ids never collide with restored ones.
            fresh, created = second.submit(
                "explore", {"circuits": ["vender"], "budgets": [6]})
            assert created and fresh.id not in restored
        finally:
            second.close()

    def test_opening_waits_out_a_racing_opener(self, tmp_path):
        """Switching a new file to WAL needs an exclusive lock; a queue
        opened while another connection holds the file waits for it
        instead of failing with "database is locked"."""
        path = tmp_path / "queue.sqlite"
        holder = sqlite3.connect(path, isolation_level=None,
                                 check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("CREATE TABLE racing (x)")
        release = threading.Timer(0.2, holder.execute, ("COMMIT",))
        release.start()
        queue = LeaseStore(path)
        try:
            row, created = queue.submit("explore", PARAMS)
            assert created and queue.get(row.id).state == "queued"
        finally:
            release.join()
            holder.close()
            queue.close()


class TestCancel:
    def test_queued_cancel_is_immediate(self, registry, new_job):
        job = new_job()
        assert registry.request_cancel(job) is True
        assert job.state is JobState.CANCELLED

    def test_running_cancel_is_cooperative(self, registry, new_job):
        job = new_job()
        registry.transition(job, JobState.RUNNING)
        assert registry.request_cancel(job) is False
        assert job.cancel_requested
        assert job.state is JobState.RUNNING

    def test_terminal_cancel_is_a_noop(self, registry, new_job):
        job = new_job()
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.DONE)
        assert registry.request_cancel(job) is False
        assert not job.cancel_requested


class TestEventFeed:
    def test_seq_is_monotonic_and_filterable(self, registry, new_job):
        job = new_job()
        for k in range(5):
            registry.push(job, {"type": "point", "k": k})
        snapshot = job.snapshot(since=3)
        assert [e["seq"] for e in snapshot["events"]] == [4, 5]
        assert job.snapshot()["last_seq"] == 5
        assert "events" not in job.snapshot()  # no since -> no feed

    def test_feed_is_bounded(self, registry, new_job):
        job = new_job()
        for k in range(MAX_EVENTS + 10):
            registry.push(job, {"type": "point", "k": k})
        assert len(job.events) == MAX_EVENTS
        assert job.events_dropped == 10
        assert job.last_seq == MAX_EVENTS + 10  # seq never rewinds
