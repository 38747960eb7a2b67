"""The BSP machine: lockstep execution of SPMD rank programs.

A *rank program* is a Python generator.  It computes locally, and whenever
it needs communication it yields a collective request::

    recv = yield ("alltoallv", {dest: payload, ...})   # -> {src: payload}
    recv = yield ("alltoallv_async", {dest: payload})   # nonblocking variant
    _ = yield ("commwait", None)                        # close async window
    total = yield ("allreduce", local_value)            # -> sum over ranks
    vals = yield ("allgather", local_value)             # -> [v0, v1, ...]
    _ = yield ("barrier", None)
    _ = yield ("phase", "executor")                     # named timing mark

An ``alltoallv_async`` routes identically to ``alltoallv`` (the simulation
delivers immediately) but models a *nonblocking* post: its α–β time
overlaps with the compute done before the matching ``commwait`` — see
:meth:`RunStats.parallel_time`.  A payload wrapped in :class:`Fragmented`
ships one envelope per value (the uncoalesced baseline) and is packed back
into one array at the receiver.

The machine advances all ranks to their next yield, checks they agree on
the collective (SPMD discipline), routes the data, and resumes them.  Per
rank, wall-clock compute time between collectives is measured; per
collective, messages and bytes are counted.  ``RunStats`` aggregates both
and converts them into an estimated parallel time under an α–β
:class:`CommModel`.

Helper subroutines compose with ``result = yield from helper(...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable

import numpy as np

from repro.errors import CommFailureError, PhaseNotFoundError, RuntimeMachineError
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace
from repro.runtime import faults as _faults

__all__ = [
    "CommModel",
    "PhaseStats",
    "RunStats",
    "Machine",
    "payload_nbytes",
    "Fragmented",
    "assemble_fragments",
]


class Fragmented(list):
    """A per-value (uncoalesced) point-to-point payload.

    Each element is a ``(slot, value)`` pair and ships as its *own*
    envelope: its own message count, its own α charge, its own checksum
    and its own retry unit under fault injection.  This is the baseline
    the coalesced path (one contiguous packed array per destination, whose
    packet order the gather schedule fixes so no slot indices travel at
    all) is measured against.  The machine packs arrivals back into the
    packed ``ndarray`` the receiver would have gotten from a coalesced
    send — the two modes are bitwise interchangeable.
    """

    @classmethod
    def pack(cls, values) -> "Fragmented":
        return cls((int(i), float(v)) for i, v in enumerate(np.asarray(values)))


def assemble_fragments(parts) -> np.ndarray:
    """Packed array from ``(slot, value)`` parts, in slot order (arrival
    order independent — reordered or duplicated-then-suppressed deliveries
    assemble identically)."""
    out = np.empty(len(parts), dtype=np.float64)
    for i, v in parts:
        out[i] = v
    return out


def payload_nbytes(obj) -> int:
    """Approximate wire size of a payload (numpy-aware).

    Branches, in order:

    * ``None`` carries nothing (a pure synchronization payload),
    * ``bool`` is one byte on the wire, not a machine word,
    * numpy scalars (including structured ``np.void`` records) know their
      own width — a ``float32`` costs 4, not a flat 8,
    * numpy arrays cost their *logical* element bytes
      (``size * itemsize``), which is stride-independent: a non-contiguous
      view or a 0-d array is sized by what crosses the wire, not by its
      backing buffer; object-dtype arrays recurse into their elements
      instead of counting pointer words,
    * Python ``int``/``float`` cost one 8-byte word,
    * ``bytes``/``bytearray``/``str``/``memoryview`` cost their length,
    * mappings cost the sum over keys and values,
    * any other sequence/iterable-like (tuple, list, range, ...) costs the
      sum over its elements,
    * everything else gets a flat 64-byte opaque-object estimate.
    """
    if obj is None:
        return 0
    if isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, np.generic):  # any numpy scalar, incl. structured void
        return int(obj.nbytes)
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            # pointer words say nothing about wire size; price the elements
            # (works for 0-d object arrays too — .flat iterates them)
            return sum(payload_nbytes(x) for x in obj.flat)
        # logical element bytes: correct for 0-d arrays, non-contiguous
        # views, and broadcast views alike (nbytes is too, but only by
        # definition — this makes the stride-independence explicit)
        return int(obj.size) * int(obj.itemsize)
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, memoryview):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list, range, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj)
    return 64  # opaque object: flat estimate


@dataclass(frozen=True)
class CommModel:
    """α–β communication cost: per-message latency + per-byte transfer.

    Defaults approximate the paper's IBM SP-2 (≈40 µs latency, ≈40 MB/s).
    """

    latency: float = 40e-6
    inv_bandwidth: float = 25e-9

    def time(self, msgs: int, nbytes: int) -> float:
        return msgs * self.latency + nbytes * self.inv_bandwidth


@dataclass
class PhaseStats:
    """One superstep: per-rank compute seconds and traffic counts."""

    kind: str
    label: str | None
    compute: np.ndarray  # seconds per rank since the previous superstep
    msgs: np.ndarray  # messages sent per rank
    nbytes: np.ndarray  # bytes sent per rank
    #: rank×rank byte matrix of this superstep: entry [p, q] is what rank p
    #: sent to rank q (allreduce bytes attributed to the ring neighbor,
    #: allgather bytes to every peer, so the total matches ``nbytes``)
    bytes_matrix: np.ndarray | None = None
    #: retransmissions per rank under fault injection (None on the happy
    #: path — the field exists only when a fault injector was installed)
    retries: np.ndarray | None = None
    #: True for a nonblocking exchange (``alltoallv_async``): its modeled
    #: communication time overlaps with the compute of the following
    #: superstep (the interior work done before the matching ``commwait``)
    overlapped: bool = False

    def comm_time(self, model: CommModel) -> float:
        """Modeled α–β communication seconds of the slowest rank."""
        return float(np.max(self.rank_comm(model)))

    def rank_comm(self, model: CommModel) -> np.ndarray:
        """Per-rank modeled α–β communication seconds of this superstep."""
        return model.time(self.msgs, self.nbytes)

    def busy_time(self, model: CommModel) -> np.ndarray:
        """Per-rank busy seconds: compute plus *charged* communication.

        An overlapped superstep charges compute only — its wire time is in
        flight under later compute (see ``RunStats.parallel_time``)."""
        if self.overlapped:
            return self.compute.copy()
        return self.compute + self.rank_comm(model)

    def step_time(self, model: CommModel) -> float:
        """Estimated parallel duration of this superstep: slowest rank's
        compute plus its modeled communication."""
        return float(np.max(self.compute + self.rank_comm(model)))


@dataclass
class RunStats:
    """Aggregated statistics of one ``Machine.run``."""

    nprocs: int
    phases: list[PhaseStats] = field(default_factory=list)
    #: canonical fault-event log of the run (empty without fault injection):
    #: ``(kind, superstep, src, dst, seq, attempt)`` tuples in injection order
    fault_events: list = field(default_factory=list)
    #: the cost model of the machine that produced this run (the default
    #: for :meth:`parallel_time` / :meth:`comm_time` when none is passed)
    model: "CommModel | None" = None

    def total_compute(self) -> np.ndarray:
        """Per-rank compute seconds over the whole run."""
        if not self.phases:
            return np.zeros(self.nprocs)
        return np.sum([p.compute for p in self.phases], axis=0)

    def total_msgs(self) -> int:
        return int(sum(p.msgs.sum() for p in self.phases))

    def total_retries(self) -> int:
        """Retransmissions over the whole run (0 without fault injection).

        Composes with :meth:`phase`: ``stats.phase("executor").total_retries()``
        is the per-phase retry count of the executor window."""
        return int(
            sum(p.retries.sum() for p in self.phases if p.retries is not None)
        )

    def total_nbytes(self) -> int:
        return int(sum(p.nbytes.sum() for p in self.phases))

    def parallel_time(self, model: CommModel | None = None) -> float:
        """Estimated wall time: Σ over supersteps of the slowest rank.

        A superstep marked ``overlapped`` (nonblocking ghost exchange)
        contributes only its compute; its modeled communication time is
        carried forward and finishes *under* the next superstep's compute
        — ``max(comm in flight, interior compute)`` instead of their sum,
        the BlockSolve95 overlap model, folded by :meth:`step_attribution`.
        """
        durations, _busy, drain = self.step_attribution(model)
        return sum(durations.tolist()) + drain

    def comm_time(self, model: CommModel | None = None) -> float:
        """Modeled α–β communication seconds over the whole run (slowest
        rank per superstep, no overlap credit — the raw wire cost)."""
        model = model or self.model or CommModel()
        return sum(p.comm_time(model) for p in self.phases)

    def step_attribution(
        self, model: CommModel | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-superstep durations and per-rank busy seconds under the
        overlap fold of :meth:`parallel_time`.

        Returns ``(durations, busy, drain)``: ``durations[k]`` is what
        superstep k contributes to the estimated wall time (an overlapped
        exchange contributes its compute only; the step that closes an
        overlap window is stretched to cover any communication still in
        flight), ``busy[k, p]`` is rank p's busy seconds in that step
        (compute plus charged communication), and ``drain`` is trailing
        in-flight communication no compute ever covered.
        :meth:`parallel_time` is ``durations`` summed in order plus ``drain``.

        ``durations[k] - busy[k, p]`` is rank p's *wait* in superstep k —
        the per-step idle exposure the critical-path profiler consumes.
        """
        model = model or self.model or CommModel()
        durations: list[float] = []
        busy: list[np.ndarray] = []
        in_flight = 0.0
        for p in self.phases:
            if p.overlapped:
                durations.append(float(np.max(p.compute)))
                busy.append(p.compute.copy())
                in_flight = max(in_flight, p.comm_time(model))
                continue
            t = p.step_time(model)
            if in_flight > 0.0:
                t = max(t, in_flight)
                in_flight = 0.0
            durations.append(t)
            busy.append(p.busy_time(model))
        if not durations:
            return np.zeros(0), np.zeros((0, self.nprocs)), in_flight
        return np.asarray(durations), np.stack(busy), in_flight

    # ------------------------------------------------------------------
    # serialization (the ``run_stats`` trace event)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form carrying everything the offline profiler needs
        (per-superstep kinds, labels, per-rank compute/traffic, overlap
        flags, the α–β model); ``comm_matrix`` data stays in its own trace
        event."""
        return {
            "nprocs": self.nprocs,
            "model": (
                {
                    "latency": self.model.latency,
                    "inv_bandwidth": self.model.inv_bandwidth,
                }
                if self.model is not None
                else None
            ),
            "phases": [
                {
                    "kind": p.kind,
                    "label": p.label,
                    "compute": p.compute.tolist(),
                    "msgs": p.msgs.tolist(),
                    "nbytes": p.nbytes.tolist(),
                    "overlapped": bool(p.overlapped),
                    "retries": None if p.retries is None else p.retries.tolist(),
                }
                for p in self.phases
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunStats":
        """Rebuild from :meth:`to_dict` (e.g. a ``run_stats`` trace event)."""
        model = None
        if doc.get("model"):
            model = CommModel(
                latency=float(doc["model"]["latency"]),
                inv_bandwidth=float(doc["model"]["inv_bandwidth"]),
            )
        out = cls(int(doc["nprocs"]), model=model)
        for ph in doc.get("phases", []):
            out.phases.append(
                PhaseStats(
                    kind=str(ph["kind"]),
                    label=ph.get("label"),
                    compute=np.asarray(ph["compute"], dtype=np.float64),
                    msgs=np.asarray(ph["msgs"], dtype=np.int64),
                    nbytes=np.asarray(ph["nbytes"], dtype=np.int64),
                    overlapped=bool(ph.get("overlapped", False)),
                    retries=(
                        None
                        if ph.get("retries") is None
                        else np.asarray(ph["retries"], dtype=np.int64)
                    ),
                )
            )
        return out

    def comm_matrix(self) -> np.ndarray:
        """Rank×rank byte matrix over the whole run: entry [p, q] is what
        rank p sent to rank q; the grand total equals ``total_nbytes()``."""
        out = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for p in self.phases:
            if p.bytes_matrix is not None:
                out += p.bytes_matrix
        return out

    def phase_labels(self) -> list[str]:
        """Phase-marker labels in first-appearance order."""
        seen: list[str] = []
        for p in self.phases:
            if p.kind == "phase" and p.label is not None and p.label not in seen:
                seen.append(p.label)
        return seen

    def phase(self, label: str) -> "RunStats":
        """The sub-run between consecutive ``("phase", label)`` markers
        named ``label`` and the next phase marker (or end of run).

        Raises :class:`~repro.errors.PhaseNotFoundError` when no marker
        with that label exists — an empty result here almost always means
        a typo in the label, not a phase that did no work.
        """
        out = RunStats(self.nprocs, model=self.model)
        active = False
        found = False
        for p in self.phases:
            if p.kind == "phase":
                active = p.label == label
                found = found or active
                continue
            if active:
                out.phases.append(p)
        if not found:
            known = self.phase_labels()
            raise PhaseNotFoundError(
                f"no phase marker named {label!r} in this run; "
                + (f"known phases: {known}" if known else "the run has no phase markers")
            )
        return out

    def window(self, label: str) -> "RunStats":
        """Alias of :meth:`phase` (historical name)."""
        return self.phase(label)


class _Traffic:
    """One superstep's wire counters, filled by :meth:`Machine._send`.
    They are Python lists because bumping a list slot per message costs
    about a tenth of a numpy element update (``bmat`` is the flat
    rank×rank matrix, ``[src * P + dst]``); ``retries`` and ``extra``
    (modeled stall and retry-wait seconds) exist only under an injector."""

    __slots__ = ("step", "msgs", "nbytes", "bmat", "retries", "extra")

    def __init__(self, nprocs: int, step: int, collect_stats: bool, faulty: bool):
        self.step = step
        self.msgs = [0] * nprocs
        self.nbytes = [0] * nprocs
        self.bmat = [0] * (nprocs * nprocs) if collect_stats else None
        self.retries = np.zeros(nprocs, dtype=np.int64) if faulty else None
        self.extra = np.zeros(nprocs) if faulty else None


class Machine:
    """A simulated P-processor message-passing machine.

    Every remote message takes one delivery path (:meth:`_send`), which
    counts it and hands back its arrivals.  ``faults`` (a
    :class:`~repro.runtime.faults.FaultPlan` or a prebuilt
    :class:`~repro.runtime.faults.FaultInjector`) installs the fault layer
    as a step inside that path: the message then travels as a
    sequence-numbered, checksummed envelope through a drop / duplicate /
    reorder / corrupt / stall adversary, with bounded retransmission per
    ``delivery`` (a :class:`~repro.runtime.faults.DeliveryConfig`).  The
    protocol either delivers exactly the sent bytes or raises
    :class:`~repro.errors.CommFailureError`.  Without ``faults`` there is
    no injector: no checksum, no sequence number, no reordering.
    """

    def __init__(self, nprocs: int, faults=None, delivery=None, model=None):
        if nprocs < 1:
            raise RuntimeMachineError("need at least one processor")
        self.nprocs = int(nprocs)
        #: α–β cost model used for modeled-time metrics during the run and
        #: as the default model of the produced RunStats
        self.model = model or CommModel()
        if faults is None:
            self.injector = None
        elif isinstance(faults, _faults.FaultInjector):
            self.injector = faults
        else:
            self.injector = _faults.FaultInjector(
                faults, delivery or _faults.DeliveryConfig()
            )
        self.delivery = (
            delivery
            or (self.injector.delivery if self.injector else None)
            or _faults.DeliveryConfig()
        )

    # ------------------------------------------------------------------
    # the one delivery path (remote messages only)
    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, payload, tr: _Traffic) -> list:
        """Put one remote message on the wire, counting every attempt as
        traffic; returns its arrival envelopes ``(src, seq, payload)``.
        Without an injector it goes once and arrives once, as sent."""
        if self.injector is None:
            arrivals, attempts = [(src, -1, payload)], 1
        else:
            arrivals, attempts = self._deliver(src, dst, payload, tr)
        nb = attempts * payload_nbytes(payload)
        tr.msgs[src] += attempts
        tr.nbytes[src] += nb
        if tr.bmat is not None:
            tr.bmat[src * self.nprocs + dst] += nb
        return arrivals

    def _deliver(self, src, dst, payload, tr: _Traffic) -> tuple[list, int]:
        """Ship one message through the adversary with bounded retry.

        Returns the arrival envelopes — usually one, two when duplicated,
        never carrying corrupt data (corruption is detected by the
        envelope checksum and NACKed) — and the attempts it took.  Retry
        k charges the sender the modeled ack-timeout wait.  Raises
        CommFailureError when the retry budget is exhausted.
        """
        inj = self.injector
        cfg = self.delivery
        step = tr.step
        seq = inj.next_seq(src, dst)
        checksum = _faults.payload_checksum(payload)
        attempt = 0
        while True:
            attempt += 1
            fate = inj.fate(src, dst, seq, attempt)
            failed = False
            if fate.drop:
                inj.record("drop", step, src, dst, seq, attempt)
                failed = True
            elif fate.corrupt:
                bad = _faults.corrupt_payload(
                    payload, inj.corruption_rng(src, dst, seq, attempt)
                )
                if bad is not None and _faults.payload_checksum(bad) != checksum:
                    # receiver sees the checksum mismatch and NACKs
                    inj.record("corrupt", step, src, dst, seq, attempt)
                    failed = True
                # else: nothing corruptible in the payload — arrives intact
            if not failed:
                out = [(src, seq, payload)]
                if fate.duplicate:
                    inj.record("duplicate", step, src, dst, seq, attempt)
                    out.append((src, seq, payload))
                tr.retries[src] += attempt - 1
                if attempt > 1:
                    _metrics.record("runtime.retries", attempt - 1)
                return out, attempt
            if attempt > cfg.max_retries:
                raise CommFailureError(
                    f"message {src}->{dst} seq={seq} undeliverable after "
                    f"{attempt} attempts (retry budget {cfg.max_retries}); "
                    f"plan: {inj.plan.describe()}",
                    plan=inj.plan,
                    src=src,
                    dst=dst,
                    seq=seq,
                    attempts=attempt,
                )
            tr.extra[src] += cfg.retry_wait(attempt)

    def _alltoallv(self, requests, tr: _Traffic) -> list[dict]:
        """Route one all-to-all; returns each rank's ``{src: payload}``.

        Self-messages never touch the network.  A :class:`Fragmented`
        payload travels part by part and is packed back by slot.  Under an
        injector each rank's arrivals may be reordered, and duplicates
        (same ``(src, seq)``) are suppressed."""
        P = self.nprocs
        inj = self.injector
        recv: list[dict] = [{} for _ in range(P)]
        arrivals: list[list] = [[] for _ in range(P)]
        fragmented: list[set] = [set() for _ in range(P)]  # by dst: srcs sending parts
        for p in range(P):
            for q, payload in (requests[p][1] or {}).items():
                q = int(q)
                if not 0 <= q < P:
                    raise RuntimeMachineError(
                        f"SPMD violation: rank {p} sends to nonexistent rank {q} "
                        f"at superstep {tr.step}",
                        superstep=tr.step,
                        bad_rank=q,
                    )
                frag = isinstance(payload, Fragmented)
                if q == p:
                    recv[p][p] = assemble_fragments(payload) if frag else payload
                elif frag:
                    fragmented[q].add(p)
                    for part in payload:
                        arrivals[q].extend(self._send(p, q, part, tr))
                else:
                    arrivals[q].extend(self._send(p, q, payload, tr))
        for q in range(P):
            envs = arrivals[q]
            perm = inj.reorder_perm(q, tr.step, len(envs)) if inj is not None else None
            if perm is not None:
                envs = [envs[int(k)] for k in perm]
                inj.record("reorder", tr.step, src=-1, dst=q)
            seen: set[tuple[int, int]] = set()
            for src, seq, payload in envs:
                if inj is not None:
                    if (src, seq) in seen:
                        inj.record("dup_suppressed", tr.step, src, q, seq)
                        continue
                    seen.add((src, seq))
                if src in fragmented[q]:
                    recv[q].setdefault(src, []).append(payload)
                else:
                    recv[q][src] = payload
            for src in fragmented[q]:
                # slot-addressed assembly: immune to reordering
                recv[q][src] = assemble_fragments(recv[q].get(src, ()))
        return recv

    @staticmethod
    def _collective(requests, done, step: int):
        """The ``(kind, label)`` every rank issued this superstep; raises
        RuntimeMachineError on an SPMD violation."""
        kinds = {r[0] for r in requests if r is not None}
        if any(done):
            raise RuntimeMachineError(
                f"SPMD violation: rank(s) {[p for p, d in enumerate(done) if d]} "
                f"finished at superstep {step} while rank(s) "
                f"{[p for p, d in enumerate(done) if not d]} still wait in "
                f"{sorted(kinds)} — the waiting ranks deadlock",
                superstep=step,
            )
        if len(kinds) != 1:
            by_kind = {k: [p for p, r in enumerate(requests) if r[0] == k] for k in sorted(kinds)}
            raise RuntimeMachineError(
                f"SPMD violation: mismatched collectives at superstep {step}: "
                f"{by_kind} — ranks wait on different operations",
                superstep=step,
            )
        (kind,) = kinds
        labels = {r[1] for r in requests} if kind == "phase" else {None}
        if len(labels) != 1:
            raise RuntimeMachineError(
                f"SPMD violation: mismatched phase labels "
                f"{sorted(labels, key=str)} at superstep {step}",
                superstep=step,
            )
        return kind, labels.pop()

    # ------------------------------------------------------------------
    def run(
        self,
        make_program: Callable[[int], Generator],
        collect_stats: bool = True,
    ) -> tuple[list, RunStats]:
        """Run one rank program per processor to completion.

        ``make_program(p)`` builds rank p's generator.  Returns each
        rank's return value and the run statistics.  All ranks must issue
        the same sequence of collectives (checked) — the SPMD contract.

        While the run is in flight the machine's fault injector (if any)
        is visible to rank programs through
        :func:`repro.runtime.faults.active_injector`, which is how the
        executors know to run the schedule-validation protocol.
        """
        with _faults._activation(self.injector):
            return self._run(make_program, collect_stats)

    def _run(self, make_program, collect_stats: bool) -> tuple[list, RunStats]:
        P = self.nprocs
        gens = [make_program(p) for p in range(P)]
        inbox: list = [None] * P
        results: list = [None] * P
        stats = RunStats(P, model=self.model)
        inj = self.injector
        if inj is not None:
            inj.reset()  # same-plan replays are bit-identical
        step_no = 0  # superstep counter (stall / reorder entropy coordinate)
        pending = None  # traffic of an in-flight async exchange

        # observability: per-rank spans per phase window + comm counters
        tracer = _trace.get_tracer()
        win_label = "startup"
        win_start = tracer._now_us() if tracer is not None else 0.0
        win_compute = np.zeros(P)
        win_msgs = np.zeros(P, dtype=np.int64)
        win_bytes = np.zeros(P, dtype=np.int64)

        def _flush_window() -> None:
            if tracer is None or not win_compute.any() and not win_msgs.any():
                return
            for p in range(P):
                tracer.add_complete(
                    f"rank{p}/{win_label}",
                    win_start,
                    win_compute[p] * 1e6,
                    tid=f"rank{p}",
                    phase=win_label,
                    msgs=int(win_msgs[p]),
                    nbytes=int(win_bytes[p]),
                )

        try:
            while True:
                requests: list = [None] * P
                done = [False] * P
                compute = np.zeros(P)
                for p in range(P):
                    t0 = time.perf_counter()
                    try:
                        requests[p] = gens[p].send(inbox[p])
                    except StopIteration as stop:
                        results[p] = stop.value
                        done[p] = True
                    compute[p] = time.perf_counter() - t0
                win_compute += compute
                if all(done):
                    if collect_stats:
                        stats.phases.append(
                            PhaseStats("finish", None, compute, np.zeros(P, np.int64), np.zeros(P, np.int64))
                        )
                    break
                kind, label = self._collective(requests, done, step_no)
                tr = _Traffic(P, step_no, collect_stats, inj is not None)
                if inj is not None and kind != "phase":
                    for p in range(P):
                        st = inj.stall_seconds(p, step_no)
                        if st > 0.0:
                            tr.extra[p] += st
                            inj.record("stall", step_no, src=p, dst=p)

                inbox = [None] * P
                if kind in ("alltoallv", "alltoallv_async"):
                    inbox = self._alltoallv(requests, tr)
                    if kind == "alltoallv_async":
                        # nonblocking: packets fly while the ranks compute their
                        # interior rows; the matching "commwait" closes the window
                        pending = tr
                elif kind == "commwait":
                    if pending is not None and _metrics.metrics_enabled():
                        hidden = max(self.model.time(*mb) for mb in zip(pending.msgs, pending.nbytes))
                        if hidden > 0.0:
                            _metrics.observe(
                                "comm.overlap_ratio", min(hidden, float(compute.max())) / hidden
                            )
                    pending = None
                elif kind == "allreduce":
                    # ring model: each contribution travels to the next rank
                    # (keeps matrix total == bytes); under an injector a
                    # corrupt/dropped one is retransmitted, never reduced
                    for p in range(P):
                        self._send(p, (p + 1) % P, requests[p][1], tr)
                    total = requests[0][1]
                    for p in range(1, P):
                        total = total + requests[p][1]
                    inbox = [total] * P
                elif kind == "allgather":
                    gathered = [r[1] for r in requests]
                    for p in range(P):
                        inbox[p] = list(gathered)
                        for q in range(P):
                            if q != p:  # one copy per peer
                                self._send(p, q, gathered[p], tr)
                elif kind == "phase":
                    _flush_window()
                    win_label = str(label)
                    win_start = tracer._now_us() if tracer is not None else 0.0
                    win_compute = np.zeros(P)
                    win_msgs = np.zeros(P, dtype=np.int64)
                    win_bytes = np.zeros(P, dtype=np.int64)
                elif kind != "barrier":
                    raise RuntimeMachineError(
                        f"SPMD violation: unknown collective {kind!r} at "
                        f"superstep {step_no}",
                        superstep=step_no,
                    )

                msgs = np.array(tr.msgs, dtype=np.int64)
                nbytes = np.array(tr.nbytes, dtype=np.int64)
                win_msgs += msgs
                win_bytes += nbytes
                if inj is not None and tr.extra.any():
                    compute = compute + tr.extra
                    win_compute += tr.extra
                if _metrics.metrics_enabled() and kind != "phase":
                    _metrics.record("machine.collectives", 1, kind=kind)
                    _metrics.record("machine.msgs", sum(tr.msgs), kind=kind)
                    _metrics.record("machine.bytes", sum(tr.nbytes), kind=kind)
                    _metrics.observe(
                        "machine.superstep_compute_seconds",
                        float(compute.max()),
                        phase=win_label,
                    )
                if collect_stats:
                    stats.phases.append(
                        PhaseStats(
                            kind, label, compute, msgs, nbytes,
                            bytes_matrix=np.array(tr.bmat, dtype=np.int64).reshape(P, P),
                            retries=tr.retries,
                            overlapped=(kind == "alltoallv_async"),
                        )
                    )
                step_no += 1
        except BaseException as exc:
            # the trace must stay parseable when a solve dies mid-flight
            # (e.g. CommFailureError after retry exhaustion): mark the
            # abort, then let the finally block flush the open window
            if tracer is not None:
                tracer.instant(
                    "machine.abort",
                    tid="machine",
                    step=step_no,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise
        finally:
            if inj is not None:
                stats.fault_events = inj.event_log()
            _flush_window()
            if tracer is not None and collect_stats:
                tracer.instant(
                    "comm_matrix",
                    tid="machine",
                    nprocs=P,
                    matrix=stats.comm_matrix().tolist(),
                    total_bytes=stats.total_nbytes(),
                )
                tracer.instant("run_stats", tid="machine", **stats.to_dict())
        return results, stats
