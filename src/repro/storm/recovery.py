"""Epoch-aligned checkpointing and exactly-once recovery.

The paper's synchronization markers cut every stream into linearly
ordered epochs, and an epoch boundary is a *consistent cut*: when a
vertex has consumed the epoch-``ts`` markers from all of its input
channels, every tuple of that epoch (and none of a later one) has
passed through it.  Snapshotting each task's state exactly at that
point — and remembering, per source, how far into its emission log the
boundary lies — yields a Chandy-Lamport-style aligned snapshot without
any extra coordination traffic: the markers the type system already
mandates *are* the snapshot barriers.

Recovery is global rollback, Flink-style: on any task failure the
simulator's :class:`FaultCoordinator` restores the last epoch whose
snapshot is complete across all tasks, discards in-flight messages,
replays sources from the snapshot's log position, and relies on two
mechanisms for exactly-once *semantics*:

- per-link sequence numbering + :class:`~repro.storm.faults.Resequencer`
  filtering turns the at-least-once links into exactly-once links;
- the data-trace types absorb the remaining nondeterminism — unordered
  (U) edges tolerate replay-induced reorder because the canonical trace
  is compared modulo the dependence relation, and ordered (O) edges are
  replayed per-key in order.

Correctness criterion (and the headline test): the recovered run's
canonical sink traces are *trace-equivalent* to the fault-free run's —
not byte-equal, which would be both unattainable and unnecessary.

This module also hosts the in-process twin: :func:`run_with_recovery`
drives a :class:`~repro.compiler.inprocess.InProcessPipeline`
epoch-by-epoch through its one entry point, ``push_batch`` (whole epoch
blocks, or one-event blocks when unbatched), with ``snapshot()`` /
``restore()`` around injected crashes and optional link faults on the
ingest streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, TaskFailureError
from repro.operators.base import Marker
from repro.storm.faults import (
    CrashFault,
    EdgeFaults,
    FaultPlan,
    Resequencer,
    apply_edge_faults,
    recover_stream,
)
from repro.storm.topology import CaptureBolt


@dataclass(frozen=True)
class RecoveryOptions:
    """Knobs for the simulator's recovery coordinator.

    ``checkpoint_every`` snapshots every N-th epoch (1 = every epoch);
    ``retransmit_timeout`` is the extra delay a dropped transmission
    pays per retransmission; ``restart_delay`` models process restart
    time after a crash; ``max_recoveries`` bounds total rollbacks so a
    pathological plan fails loudly instead of looping.
    """

    checkpoint_every: int = 1
    retransmit_timeout: float = 1e-3
    restart_delay: float = 0.0
    max_recoveries: int = 25

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.retransmit_timeout < 0 or self.restart_delay < 0:
            raise ValueError("timeouts must be non-negative")
        if self.max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")


@dataclass
class RecoveryStats:
    """What the fault-tolerance machinery actually did during a run."""

    recoveries: int = 0
    checkpoints_taken: int = 0
    complete_epochs: int = 0
    last_restored_epoch: Optional[Any] = None
    duplicates_filtered: int = 0
    retransmissions: int = 0
    reordered: int = 0
    replayed_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "recoveries": self.recoveries,
            "checkpoints_taken": self.checkpoints_taken,
            "complete_epochs": self.complete_epochs,
            "last_restored_epoch": self.last_restored_epoch,
            "duplicates_filtered": self.duplicates_filtered,
            "retransmissions": self.retransmissions,
            "reordered": self.reordered,
            "replayed_events": self.replayed_events,
        }


class CheckpointStore:
    """Aligned snapshots, keyed by epoch timestamp then task.

    An epoch's snapshot is *complete* once all ``n_tasks`` tasks have
    contributed their piece.  Markers drain past tasks in epoch order,
    so when an epoch completes every strictly older snapshot is
    superseded and pruned.  ``index_of`` maps an epoch timestamp to its
    position in the marker order (timestamps themselves may be any
    comparable or even non-comparable payload).
    """

    def __init__(self, n_tasks: int,
                 index_of: Optional[Callable[[Any], int]] = None):
        self.n_tasks = n_tasks
        self._index_of = index_of if index_of is not None else lambda ts: ts
        self._snapshots: Dict[Any, Dict[Any, Any]] = {}
        self._complete: List[Any] = []

    def add(self, ts: Any, task_key: Any, snapshot: Any) -> bool:
        """Record one task's snapshot; True when ``ts`` just completed."""
        epoch = self._snapshots.setdefault(ts, {})
        epoch[task_key] = snapshot
        if len(epoch) < self.n_tasks:
            return False
        self._complete.append(ts)
        idx = self._index_of(ts)
        for old in [t for t in self._snapshots if self._index_of(t) < idx]:
            del self._snapshots[old]
        return True

    def latest(self) -> Optional[Tuple[Any, Dict[Any, Any]]]:
        """The newest complete snapshot as ``(ts, {task: state})``."""
        if not self._complete:
            return None
        ts = self._complete[-1]
        return ts, self._snapshots[ts]

    def drop_after(self, ts: Optional[Any]) -> None:
        """Forget snapshots newer than ``ts`` (all of them if None).

        Called on rollback: partially accumulated snapshots for epochs
        past the restore point refer to a timeline that no longer
        exists.  The restored epoch's own complete snapshot is kept.
        """
        if ts is None:
            self._snapshots.clear()
            self._complete.clear()
            return
        idx = self._index_of(ts)
        for newer in [t for t in self._snapshots if self._index_of(t) > idx]:
            del self._snapshots[newer]
        self._complete = [t for t in self._complete if self._index_of(t) <= idx]

    @property
    def completed(self) -> int:
        return len(self._complete)


class FaultCoordinator:
    """The simulator's fault-injection and recovery layer.

    ``Simulator.run`` builds one for a :class:`~repro.storm.faults.FaultPlan`
    or :class:`RecoveryOptions` and calls it only at its execute,
    spout-emission, send, deliver, fault-event and rollback sites.  It
    owns the fault RNG (never the scheduling RNG), the edge-fault table,
    crash thresholds, epoch index, :class:`CheckpointStore`, seal
    callbacks, per-link numbering and resequencers, and the
    :class:`RecoveryStats`.  ``schedule``/``report`` are the core's heap
    push (``schedule(time, action, task runtime, tuple, remote)``) and
    report function; ``restart(now, at, epoch)`` is the core's half of
    a rollback.  Without ``recovery`` faults are raw and the
    core raises on a crash.
    """

    def __init__(self, topology, tasks: Dict[Any, Any],
                 faults: Optional[FaultPlan],
                 recovery: Optional[RecoveryOptions], *,
                 schedule: Callable[..., None], report: Callable[[], Any],
                 restart: Callable[[float, float, Any], None]):
        self.topology = topology
        self.tasks = tasks
        self.recovery = recovery
        self.schedule = schedule
        self.report = report
        self.restart = restart
        self.stats = RecoveryStats()
        self.fault_rng = random.Random(faults.seed) if faults is not None else None
        #: (src component, dst component) -> active faults on that edge.
        self.edges: Dict[Tuple[str, str], EdgeFaults] = {}
        # Per task runtime: pending crash thresholds (lifetime execution
        # counts, ascending, each fires once) and its execution count.
        self._crash_after: Dict[Any, List[int]] = {}
        self._executions: Dict[Any, int] = {}
        self._link_seq: Dict[Any, int] = {}
        self._resequencers: Dict[Any, Resequencer] = {}
        # Epoch timestamps in marker order as spouts first emit them.
        self._epoch_index: Dict[Any, int] = {}
        self._store: Optional[CheckpointStore] = None
        self._logs: Dict[Any, List[Any]] = {}  # spout -> emission log
        self._replay_at: Dict[Any, int] = {}  # replaying spout -> cursor
        self._plain_seals: Dict[Any, Callable[[Any], None]] = {}
        if faults is not None:
            for crash in faults.crashes:
                key = (crash.component, crash.task)
                if key not in tasks:
                    raise SimulationError(f"fault plan names unknown task {key}")
                if crash.after_executions is not None:
                    thresholds = self._crash_after.setdefault(tasks[key], [])
                    thresholds.append(crash.after_executions)
                    thresholds.sort()
                    self._executions[tasks[key]] = 0
            for spec in topology.components.values():
                for consumer, _ in topology.downstream_of(spec.name):
                    edge = faults.edge_faults(spec.name, consumer)
                    if edge is not None and edge.active():
                        self.edges[(spec.name, consumer)] = edge
            for crash in faults.crashes:
                if crash.at_time is not None:
                    schedule(crash.at_time, "fault", None, crash)
            for machine_fault in faults.machine_faults:
                schedule(machine_fault.at_time, "fault", None, machine_fault)
        if recovery is None:
            return
        self._store = CheckpointStore(
            len(tasks), index_of=self._epoch_index.__getitem__
        )
        for runtime in tasks.values():
            if runtime.is_spout:
                self._logs[runtime] = []
                continue
            payload = runtime.payload
            if hasattr(payload, "arm_seal_hook"):
                payload.arm_seal_hook(runtime.state, self._seal_callback(runtime))
                continue
            spec = topology.components[runtime.component]
            n_channels = sum(
                topology.components[upstream].parallelism
                for upstream in spec.inputs
            )
            if n_channels > 1:
                raise SimulationError(
                    "recovery needs aligned epoch snapshots, but plain "
                    f"bolt {runtime.component!r} merges {n_channels} "
                    "upstream task channels without a merge frontend; "
                    "use a compiled topology or AlignedCaptureBolt"
                )
            if isinstance(payload, CaptureBolt) and spec.parallelism > 1:
                raise SimulationError(
                    f"recovery requires CaptureBolt {runtime.component!r} "
                    "to run with parallelism 1 (its record is shared "
                    "across tasks); use AlignedCaptureBolt"
                )
            self._plain_seals[runtime] = self._seal_callback(runtime)

    # -- execute -------------------------------------------------------

    def crashes(self, runtime) -> bool:
        """Count one execution (or spout wakeup); True when it crosses
        the task's next injected crash threshold."""
        thresholds = self._crash_after.get(runtime)
        if not thresholds:
            return False
        executions = self._executions[runtime] + 1
        self._executions[runtime] = executions
        if executions > thresholds[0]:
            thresholds.pop(0)
            return True
        return False

    def executed_marker(self, runtime, ts: Any) -> None:
        """A bolt execution ended with marker ``ts``.  For a plain
        single-channel bolt that seals the epoch (nothing to align);
        compiled bolts seal mid-execute through their armed hook."""
        on_seal = self._plain_seals.get(runtime)
        if on_seal is not None:
            on_seal(ts)

    def _seal(self, runtime, ts: Any, snapshot: Callable[[], Any]) -> None:
        """``runtime`` sealed epoch ``ts``: on a checkpoint epoch, add
        ``snapshot()`` to the store."""
        runtime.last_marker = ts
        index = self._epoch_index.get(ts)
        if index is None or (index + 1) % self.recovery.checkpoint_every:
            return
        key = (runtime.component, runtime.index)
        if self._store.add(ts, key, snapshot()):
            self.stats.complete_epochs = index + 1
        self.stats.checkpoints_taken += 1

    def _seal_callback(self, runtime) -> Callable[[Any], None]:
        """The epoch-seal callback of a bolt task, compiled or plain."""
        return lambda ts: self._seal(
            runtime, ts, lambda: runtime.payload.snapshot_state(runtime.state)
        )

    # -- spout emission ------------------------------------------------

    def replay(self, runtime) -> Optional[List[Any]]:
        """A replaying spout's next logged event (as a one-event
        emission), or ``None`` when the spout is live."""
        cursor = self._replay_at.get(runtime)
        if cursor is None:
            return None
        log = self._logs[runtime]
        if cursor < len(log):
            self._replay_at[runtime] = cursor + 1
            self.stats.replayed_events += 1
            return [log[cursor]]
        del self._replay_at[runtime]  # caught up: go live
        return None

    def emitted(self, runtime, outputs: List[Any], live: bool) -> None:
        """A spout emitted ``outputs`` (replayed unless ``live``): log
        live ones, and checkpoint each marker's epoch as the emission-log
        position just after it."""
        log = self._logs.get(runtime)
        if log is None:
            return
        if live:
            log.extend(outputs)
        end = len(log) if live else self._replay_at[runtime]
        for position, event in enumerate(outputs, end - len(outputs) + 1):
            if isinstance(event, Marker):
                ts = event.timestamp
                self._epoch_index.setdefault(ts, len(self._epoch_index))
                self._seal(runtime, ts, lambda: {"log_pos": position})

    # -- send and deliver ----------------------------------------------

    def transmit(self, edge: EdgeFaults, link: Any, dst: Any, tup: Any,
                 arrival: float, remote: bool) -> None:
        """Schedule one transmission on a faulted link ``link`` (a
        ``(src task key, dst task key)`` pair) to the task runtime
        ``dst``.

        Every tuple draws from the fault RNG in one order: drop,
        reorder, duplicate.  Under recovery the link is at-least-once:
        transmissions are numbered for the receiver's resequencer,
        markers included, and a drop becomes retransmissions.  Without
        recovery a drop loses the tuple, and markers pass untouched (a
        lost marker kills alignment outright; surviving that is what
        recovery is for)."""
        schedule, recovery = self.schedule, self.recovery
        if recovery is not None:
            seq_no = self._link_seq.get(link, 0)
            self._link_seq[link] = seq_no + 1
            tup = (seq_no, tup)
        elif isinstance(tup.event, Marker):
            schedule(arrival, "deliver", dst, tup, remote)
            return
        rng, stats = self.fault_rng, self.stats
        if edge.drop and rng.random() < edge.drop:
            if recovery is None:
                return
            retransmits = 1
            while retransmits < edge.max_retransmits and rng.random() < edge.drop:
                retransmits += 1
            arrival += retransmits * recovery.retransmit_timeout
            stats.retransmissions += retransmits
        if edge.reorder and rng.random() < edge.reorder:
            arrival += rng.random() * edge.reorder_delay
            stats.reordered += 1
        if edge.duplicate and rng.random() < edge.duplicate:
            schedule(arrival + rng.random() * edge.reorder_delay, "deliver",
                     dst, tup, remote)
        schedule(arrival, "deliver", dst, tup, remote)

    def receive(self, runtime, tup: Any, remote: bool) -> List[Any]:
        """The ``(tuple, remote)`` deliveries one arrival at the task
        ``runtime`` releases: the tuple itself, or for a numbered
        transmission whatever its link's resequencer releases (in
        order, duplicates filtered)."""
        if type(tup) is not tuple:
            return [(tup, remote)]
        seq_no, real_tup = tup
        link = (real_tup.channel(), runtime)
        resequencer = self._resequencers.get(link)
        if resequencer is None:
            resequencer = self._resequencers[link] = Resequencer()
        duplicates = resequencer.duplicates
        released = resequencer.offer(seq_no, (real_tup, remote))
        self.stats.duplicates_filtered += resequencer.duplicates - duplicates
        return released

    # -- fault events and rollback -------------------------------------

    def strike(self, fault, now: float, core_free: Dict[int, List[float]]):
        """A time-triggered fault fires.  A task crash returns the task
        for the core to fail.  A machine failure re-places a permanently
        lost machine's tasks on the survivors, then rolls back (or
        raises, without recovery) and returns ``None``."""
        if isinstance(fault, CrashFault):
            return self.tasks[(fault.component, fault.task)]
        if fault.permanent and fault.machine in core_free:
            core_free.pop(fault.machine)
            survivors = sorted(core_free)
            if not survivors:
                raise SimulationError("machine fault left no worker machines")
            displaced = 0
            for runtime in self.tasks.values():
                if runtime.machine == fault.machine:
                    runtime.machine = survivors[displaced % len(survivors)]
                    displaced += 1
        if self.recovery is None:
            raise TaskFailureError(
                f"machine {fault.machine} failed at t={now:.6f}",
                machine=fault.machine, report=self.report(),
            )
        self.rollback(now, f"machine {fault.machine} fault")
        return None

    def rollback(self, now: float, detail: str) -> None:
        """Global rollback to the last complete epoch snapshot.

        Every task restores its checkpoint (or re-prepares, if the epoch
        predates its first snapshot), spouts rewind to the snapshot's
        log position, and link numbering restarts (consistent, because
        *all* state rolls back together).  The core then discards
        everything in flight and wakes the spouts."""
        stats, recovery = self.stats, self.recovery
        stats.recoveries += 1
        if stats.recoveries > recovery.max_recoveries:
            raise TaskFailureError(
                f"gave up after {recovery.max_recoveries} recoveries "
                f"(last cause: {detail})",
                report=self.report(),
            )
        latest = self._store.latest()
        epoch, snapshots = latest if latest is not None else (None, {})
        stats.last_restored_epoch = epoch
        self._resequencers.clear()
        self._link_seq.clear()
        self._store.drop_after(epoch)
        for key, runtime in self.tasks.items():
            runtime.last_marker = epoch
            snapshot = snapshots.get(key)
            if runtime.is_spout:
                self._replay_at[runtime] = (
                    snapshot["log_pos"] if snapshot is not None else 0
                )
                continue
            payload = runtime.payload
            if snapshot is not None:
                runtime.state = payload.restore_state(snapshot)
            else:
                spec = self.topology.components[runtime.component]
                runtime.state = payload.prepare(runtime.index, spec.parallelism)
            if hasattr(payload, "arm_seal_hook"):
                payload.arm_seal_hook(runtime.state, self._seal_callback(runtime))
        self.restart(now, now + recovery.restart_delay, epoch)


def split_epochs(events: Sequence[Any]) -> List[List[Any]]:
    """Cut an event stream into epoch blocks, each ending with its
    marker; a trailing marker-less partial block is kept as-is."""
    blocks: List[List[Any]] = []
    current: List[Any] = []
    for event in events:
        current.append(event)
        if isinstance(event, Marker):
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


@dataclass
class RecoveredRun:
    """Result of :func:`run_with_recovery`."""

    outputs: Dict[str, List[Any]]
    stats: RecoveryStats
    pipeline: Any = field(repr=False, default=None)


def run_with_recovery(dag, source_events: Dict[str, Sequence[Any]], *,
                      batched: bool = False,
                      checkpoint_every: int = 1,
                      crash_epochs: Sequence[int] = (),
                      crash_fraction: float = 0.5,
                      edge_faults: Optional[EdgeFaults] = None,
                      seed: int = 0) -> RecoveredRun:
    """Drive an in-process pipeline epoch-by-epoch with checkpointing,
    injected crashes, and optional ingest-link faults.

    ``crash_epochs`` lists epoch indices at which the pipeline "crashes"
    after consuming ``crash_fraction`` of that epoch's events: the live
    pipeline state is thrown away, the last checkpoint is restored, and
    the sources replay from the checkpoint boundary.  ``edge_faults``
    runs each source stream through the at-least-once link model
    (:func:`~repro.storm.faults.apply_edge_faults`) and the receiver-side
    :class:`~repro.storm.faults.Resequencer` before ingestion.

    The returned outputs must be canonically trace-equivalent to a plain
    ``compile_inprocess(dag, batched).run(source_events)``.  Raises
    ``ValueError`` for ``checkpoint_every < 1``, a ``crash_fraction``
    outside ``[0, 1]``, or a crash epoch the streams do not have.
    """
    from repro.compiler.inprocess import compile_inprocess

    RecoveryOptions(checkpoint_every=checkpoint_every)
    if not 0.0 <= crash_fraction <= 1.0:
        raise ValueError(f"crash_fraction must be in [0, 1], got {crash_fraction}")
    stats = RecoveryStats()
    rng = random.Random(seed)

    streams: Dict[str, Sequence[Any]] = {}
    for name, events in source_events.items():
        events = list(events)
        if edge_faults is not None and edge_faults.active():
            transmissions = apply_edge_faults(events, edge_faults, rng)
            recovered, dups = recover_stream(transmissions)
            stats.duplicates_filtered += dups
            if recovered != events:
                raise SimulationError(
                    f"link recovery failed to reproduce source {name!r}"
                )
            events = recovered
        streams[name] = events

    blocks = {name: split_epochs(events) for name, events in streams.items()}
    n_epochs = max((len(b) for b in blocks.values()), default=0)
    missing = sorted(e for e in set(crash_epochs) if not 0 <= e < n_epochs)
    if missing:
        raise ValueError(
            f"crash_epochs {missing} name no epoch of the {n_epochs}-epoch "
            "input"
        )

    pipe = compile_inprocess(dag, batched=batched)
    pending_crashes = sorted(set(crash_epochs))
    checkpoint = pipe.snapshot()  # epoch -1: the initial state
    ck_epoch = -1
    stats.checkpoints_taken += 1
    furthest = -1  # highest epoch index ever fully pushed

    def push_block(name: str, block: List[Any]) -> None:
        if batched:
            pipe.push_batch(name, block)
        else:
            for event in block:
                pipe.push_batch(name, [event])

    epoch = 0
    while epoch < n_epochs:
        if pending_crashes and pending_crashes[0] == epoch:
            pending_crashes.pop(0)
            for name, source_blocks in blocks.items():
                if epoch < len(source_blocks):
                    block = source_blocks[epoch]
                    prefix = block[: int(len(block) * crash_fraction)]
                    push_block(name, prefix)
                    # The prefix is thrown away with the rollback and
                    # delivered again when this epoch re-runs.
                    stats.replayed_events += len(prefix)
            pipe.restore(checkpoint)
            stats.recoveries += 1
            stats.last_restored_epoch = ck_epoch
            epoch = ck_epoch + 1
            continue
        for name, source_blocks in blocks.items():
            if epoch < len(source_blocks):
                block = source_blocks[epoch]
                if epoch <= furthest:
                    stats.replayed_events += len(block)
                push_block(name, block)
        furthest = max(furthest, epoch)
        if (epoch + 1) % checkpoint_every == 0:
            checkpoint = pipe.snapshot()
            ck_epoch = epoch
            stats.checkpoints_taken += 1
            stats.complete_epochs = epoch + 1
        epoch += 1

    outputs = {name: pipe.outputs(name) for name in pipe.sink_names()}
    return RecoveredRun(outputs=outputs, stats=stats, pipeline=pipe)
