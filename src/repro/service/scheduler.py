"""QPU multiplexing: fair-share scheduling of anneal requests.

The simulator models **one** annealer, but the service runs many jobs
at once; :class:`QpuScheduler` is the arbiter between them.  Each job's
device stack is wrapped in a :class:`ScheduledDevice`, so every
``run(request)`` first acquires the shared QPU, one request at a time:

- **Fair share** — when several jobs are waiting, the grant goes to
  the job that has consumed the least cumulative modelled QPU time so
  far (FIFO between ties), so a QA-heavy job cannot starve its
  siblings.
- **Shared budget** — an optional pool-wide cap on modelled QPU
  microseconds; once spent, further grants are refused with
  :class:`~repro.resilience.QaUnavailable` (``budget_exhausted``),
  which each job's hybrid loop already knows how to absorb by
  degrading to pure CDCL.  Per-job budgets/breakers live in each job's
  own :class:`~repro.resilience.ResilientDevice`, so one job's faults
  never trip another job's breaker.

With dedup on (the default), identical jobs never anneal side by
side: the service's coordinator solves each solve key once and hands
its outcome to the duplicates.

All accounting uses the modelled device clock
(:class:`~repro.annealer.timing.QpuTimingModel`), never wall time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SchedulerStats:
    """Counters of one scheduler lifetime (service metrics source)."""

    #: Exclusive QPU windows granted, one request each.
    grants: int = 0
    #: Grants refused because the shared pool budget was spent.
    budget_denied: int = 0
    #: Total modelled µs the QPU was occupied.
    busy_us: float = 0.0
    #: Modelled µs billed per job (this drives fair share).
    spent_by_job: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Waiter:
    job_id: str
    seq: int
    granted: bool = False


class QpuScheduler:
    """Arbiter of one simulated annealer.

    ``budget_us`` caps the *pool's* modelled device time (``None`` =
    unlimited).  Thread-safe; the service keeps one instance per
    hardware lattice.
    """

    def __init__(self, budget_us: Optional[float] = None):
        self.budget_us = budget_us
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._waiters: List[_Waiter] = []
        self._holder: Optional[_Waiter] = None
        self._seq = 0

    # -- accounting ----------------------------------------------------

    def budget_remaining_us(self) -> float:
        """Modelled µs left in the shared pool (inf if unlimited)."""
        with self._lock:
            if self.budget_us is None:
                return float("inf")
            return max(0.0, self.budget_us - self.stats.busy_us)

    def replay(self, job_id: str, grants: int, busy_us: float) -> None:
        """Fold a job's QPU usage into the shared accounting after the
        fact.  Process-pool jobs run in another address space, so their
        devices cannot call :meth:`acquire` live; the service replays
        their outcome counters here so utilisation and fair-share
        history stay correct across pool modes."""
        with self._lock:
            self.stats.grants += grants
            self.stats.busy_us += busy_us
            self.stats.spent_by_job[job_id] = (
                self.stats.spent_by_job.get(job_id, 0.0) + busy_us
            )

    # -- the lease -----------------------------------------------------

    def acquire(self, job_id: str, estimate_us: float):
        """Block until this request holds the QPU.

        Returns an opaque token for :meth:`release`.  Raises
        :class:`~repro.resilience.QaUnavailable` (reason
        ``budget_exhausted``, persistent) when the pool budget cannot
        cover the call.
        """
        from repro.resilience import QaUnavailable

        with self._cv:
            if (
                self.budget_us is not None
                and self.stats.busy_us + estimate_us > self.budget_us
            ):
                self.stats.budget_denied += 1
                raise QaUnavailable(
                    "budget_exhausted",
                    f"shared QA pool spent ({self.stats.busy_us:.0f}us of "
                    f"{self.budget_us:.0f}us); request refused",
                )
            waiter = _Waiter(job_id=job_id, seq=self._seq)
            self._seq += 1
            self._waiters.append(waiter)
            if self._holder is None:
                self._promote_locked()
            while not waiter.granted:
                self._cv.wait()
            return waiter

    def release(self, token, cost_us: float) -> None:
        """Return the QPU after a granted call and bill its *actual*
        modelled device time ``cost_us`` (reads billed even on faulted
        calls, as hardware does) to the job and the shared timeline."""
        with self._cv:
            if token is not self._holder:
                raise RuntimeError("release without a matching grant")
            self.stats.spent_by_job[token.job_id] = (
                self.stats.spent_by_job.get(token.job_id, 0.0) + cost_us
            )
            self.stats.busy_us += cost_us
            self._holder = None
            self._promote_locked()

    def _promote_locked(self) -> None:
        """Grant the QPU to the fairest waiter.  Caller holds the lock."""
        if not self._waiters:
            return
        holder = min(
            self._waiters,
            key=lambda w: (self.stats.spent_by_job.get(w.job_id, 0.0), w.seq),
        )
        self._waiters.remove(holder)
        self._holder = holder
        self.stats.grants += 1
        holder.granted = True
        self._cv.notify_all()


class ScheduledDevice:
    """Device proxy that routes ``run`` through a :class:`QpuScheduler`.

    Wraps a job's *outermost* device (its :class:`~repro.resilience.
    ResilientDevice`, or a bare :class:`~repro.annealer.device.
    AnnealerDevice` for ``no_resilience`` jobs); every other attribute
    — stats, breaker, timing, recalibration — delegates through, so
    the hybrid loop's bookkeeping is oblivious to the scheduler.
    """

    def __init__(self, device, scheduler: QpuScheduler, job_id: str):
        self.inner = device
        self.scheduler = scheduler
        self.job_id = job_id

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def run(self, request):
        estimate_us = self.inner.timing.total_us(request.num_reads)
        token = self.scheduler.acquire(self.job_id, estimate_us)
        before_us = self.inner.total_modelled_us
        try:
            return self.inner.run(request)
        finally:
            self.scheduler.release(
                token, self.inner.total_modelled_us - before_us
            )


#: Weight of the newest call outcome in a member's EWMA health score.
HEALTH_ALPHA = 0.3


@dataclass(frozen=True)
class FleetPolicy:
    """Health scoring and failover tunables of a :class:`FleetDevice`.

    Health is an EWMA of call outcomes (success = 1, failure = 0,
    weight :data:`HEALTH_ALPHA`) starting at 1.0; a device whose health
    drops below ``quarantine_threshold`` is quarantined for
    ``cooldown_us`` of modelled fleet time, then serves one *probation*
    probe call — success reactivates it, failure re-quarantines.  With
    ``hedge_after_us`` set, a primary anneal whose modelled call time
    exceeds it is hedged on the next healthy member and the
    lower-energy result wins.
    """

    quarantine_threshold: float = 0.4
    cooldown_us: float = 100_000.0
    hedge_after_us: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.quarantine_threshold < 1.0:
            raise ValueError("quarantine_threshold must be in [0, 1)")
        if self.cooldown_us < 0:
            raise ValueError("cooldown_us must be non-negative")
        if self.hedge_after_us is not None and self.hedge_after_us <= 0:
            raise ValueError("hedge_after_us must be positive when set")


@dataclass
class FleetStats:
    """Counters of one :class:`FleetDevice` lifetime."""

    #: Calls answered by a non-primary member after the routed-to
    #: member(s) failed.
    failovers: int = 0
    #: active → quarantined transitions (including re-quarantines).
    quarantines: int = 0
    #: Probation probe calls served.
    probes: int = 0
    #: Hedged anneals issued (and how many the backup won).
    hedges: int = 0
    hedge_wins: int = 0
    #: All-members-quarantined calls that waited out the shortest
    #: cooldown (in modelled time) before probing.
    cooldown_waits: int = 0


class FleetDevice:
    """N annealer stacks behind one device interface, with EWMA health
    scores, quarantine/probation, automatic failover, and optional
    hedged anneals.

    Members are the per-device stacks :func:`repro.service.jobs.
    build_device` assembles (each its own seeded
    :class:`~repro.annealer.device.AnnealerDevice`, usually wrapped in
    its own :class:`~repro.resilience.ResilientDevice` so breakers and
    budgets stay per-device).  Calls route to the healthiest *active*
    member — index 0 on ties, so a fleet of healthy devices behaves
    bit-identically to member 0 alone — and fail over down the health
    order on :class:`~repro.resilience.QaUnavailable` or a bare
    :class:`~repro.annealer.faults.DeviceFault`.  All clocks are
    modelled device microseconds (the fleet clock is the members'
    summed spend), never wall time, so quarantine cooldowns replay
    deterministically.

    Everything the hybrid loop reads (``hardware``, ``timing``,
    ``seed``, aggregated ``stats``, member 0's ``breaker``) delegates
    so :class:`~repro.core.hyqsat.HyQSatSolver` is oblivious to the
    fleet.
    """

    def __init__(self, members, policy: Optional[FleetPolicy] = None):
        if not members:
            raise ValueError("a fleet needs at least one member device")
        self.members = list(members)
        self.policy = policy or FleetPolicy()
        self.fleet_stats = FleetStats()
        self.health = [1.0] * len(self.members)
        self._state = ["active"] * len(self.members)
        self._quarantined_until = [0.0] * len(self.members)
        self._waited_us = 0.0
        self._obs = None

    # -- delegation ----------------------------------------------------

    def __getattr__(self, name: str):
        # Member 0 is the canonical identity: seed, call count, timing,
        # hardware — whatever the frontend or scheduler asks for.
        if name == "members":  # guard half-constructed instances
            raise AttributeError(name)
        return getattr(self.members[0], name)

    @property
    def stats(self):
        """Aggregated :class:`~repro.resilience.device.ResilienceStats`
        across members (raises ``AttributeError`` for bare fleets, like
        a bare single device would)."""
        from dataclasses import fields as dataclass_fields

        member_stats = [m.stats for m in self.members]  # may raise
        total = type(member_stats[0])()
        for stats in member_stats:
            for spec in dataclass_fields(stats):
                value = getattr(stats, spec.name)
                if isinstance(value, dict):
                    merged = getattr(total, spec.name)
                    for key, count in value.items():
                        merged[key] = merged.get(key, 0) + count
                elif isinstance(value, list):
                    getattr(total, spec.name).extend(value)
                else:
                    setattr(
                        total, spec.name, getattr(total, spec.name) + value
                    )
        return total

    def set_observability(self, observability) -> None:
        """Attach a tracing/metrics bundle here and on every member."""
        self._obs = observability
        for member in self.members:
            if hasattr(member, "set_observability"):
                member.set_observability(observability)
        self._publish_health()

    # -- health machinery ----------------------------------------------

    def _member_spent_us(self, member) -> float:
        stats = getattr(member, "stats", None)
        if stats is not None and hasattr(stats, "budget_spent_us"):
            return stats.budget_spent_us
        return getattr(member, "total_modelled_us", 0.0)

    def _now_us(self) -> float:
        """The fleet's modelled clock: total µs spent across members,
        plus any time waited out while every member was cooling down
        (member spend freezes when nobody is attempting, so waits must
        be tracked separately or an all-quarantined fleet would never
        recover)."""
        return (
            sum(self._member_spent_us(m) for m in self.members)
            + self._waited_us
        )

    def _publish_health(self) -> None:
        if self._obs is None or self._obs.metrics is None:
            return
        gauge = self._obs.metrics.gauge("hyqsat_device_health")
        for index, score in enumerate(self.health):
            gauge.labels(device=str(index)).set(score)

    def _on_success(self, index: int) -> None:
        self.health[index] = (
            (1 - HEALTH_ALPHA) * self.health[index] + HEALTH_ALPHA
        )
        if self._state[index] == "probation":
            self._state[index] = "active"
        self._publish_health()

    def _on_failure(self, index: int, reason: str) -> None:
        self.health[index] = (1 - HEALTH_ALPHA) * self.health[index]
        failed_probe = self._state[index] == "probation"
        if failed_probe or (
            self._state[index] == "active"
            and self.health[index] < self.policy.quarantine_threshold
        ):
            self._state[index] = "quarantined"
            self._quarantined_until[index] = (
                self._now_us() + self.policy.cooldown_us
            )
            self.fleet_stats.quarantines += 1
            if self._obs is not None:
                if self._obs.tracer.enabled:
                    self._obs.tracer.event(
                        "device.quarantine",
                        device=index,
                        reason=reason,
                        health=self.health[index],
                    )
                if self._obs.metrics is not None:
                    self._obs.metrics.counter(
                        "hyqsat_device_quarantines_total"
                    ).labels(device=str(index)).inc()
        self._publish_health()

    def _routing_order(self) -> List[int]:
        """Serving candidates: probation members first (their one probe
        call — success reactivates, failure re-quarantines, and either
        way the wait ends), then active members healthiest first (index
        0 on ties).  Quarantined members whose cooldown elapsed join as
        probation probes.  A failed probe falls over to the next
        candidate like any other failure, so probing never loses a
        call."""
        now = self._now_us()
        for index, state in enumerate(self._state):
            if state == "quarantined" and now >= self._quarantined_until[index]:
                self._state[index] = "probation"
        candidates = [
            i for i, state in enumerate(self._state) if state != "quarantined"
        ]
        return sorted(
            candidates,
            key=lambda i: (
                self._state[i] != "probation",
                -self.health[i],
                i,
            ),
        )

    # -- the device interface ------------------------------------------

    def run(self, request):
        """Anneal on the healthiest member, failing over on faults.

        Raises the last member's error when every candidate fails —
        persistent only if *every* failure was persistent, so one
        transiently-down member never degrades the whole solve.
        """
        from repro.annealer.faults import DeviceFault, fault_channel
        from repro.resilience import QaUnavailable

        order = self._routing_order()
        if not order:
            # Everyone is cooling down.  A real scheduler would block
            # until the shortest cooldown elapses; in modelled time we
            # advance the fleet clock to that instant and probe the
            # earliest-due member.  Refusing instead would deadlock:
            # the clock is summed member spend, which never advances
            # while every member is quarantined.
            earliest = min(self._quarantined_until)
            self._waited_us += max(0.0, earliest - self._now_us())
            self.fleet_stats.cooldown_waits += 1
            order = self._routing_order()
        errors: List[Exception] = []
        for position, index in enumerate(order):
            member = self.members[index]
            probing = self._state[index] == "probation"
            if probing:
                self.fleet_stats.probes += 1
            try:
                result = member.run(request)
            except QaUnavailable as unavailable:
                errors.append(unavailable)
                self._on_failure(index, unavailable.reason)
            except DeviceFault as fault:
                errors.append(fault)
                self._on_failure(index, fault_channel(fault))
            else:
                self._on_success(index)
                if position > 0:
                    self.fleet_stats.failovers += 1
                    if self._obs is not None and self._obs.tracer.enabled:
                        self._obs.tracer.event(
                            "device.failover",
                            device=index,
                            attempts=position + 1,
                        )
                return self._maybe_hedge(result, request, order, position)
        if all(
            isinstance(e, QaUnavailable) and e.persistent for e in errors
        ):
            raise errors[-1]
        raise QaUnavailable(
            "fleet_exhausted",
            f"all {len(order)} fleet member(s) failed this call; "
            "last: " + repr(errors[-1]),
        )

    def _maybe_hedge(self, result, request, order, position):
        """Re-anneal a straggler on the next healthy member and keep
        the lower-energy result (modelled time is billed on both
        members, exactly like real hedged requests)."""
        hedge_after = self.policy.hedge_after_us
        if hedge_after is None or result.qpu_time_us <= hedge_after:
            return result
        backups = [i for i in order[position + 1:]
                   if self._state[i] == "active"]
        if not backups:
            return result
        from repro.annealer.faults import DeviceFault, fault_channel
        from repro.resilience import QaUnavailable

        backup = backups[0]
        self.fleet_stats.hedges += 1
        try:
            rival = self.members[backup].run(request)
        except QaUnavailable as unavailable:
            self._on_failure(backup, unavailable.reason)
            return result
        except DeviceFault as fault:
            self._on_failure(backup, fault_channel(fault))
            return result
        self._on_success(backup)
        if rival.best.energy < result.best.energy:
            self.fleet_stats.hedge_wins += 1
            return rival
        return result

