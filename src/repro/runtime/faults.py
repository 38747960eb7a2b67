"""Deterministic fault injection for the simulated SPMD machine.

The happy-path :class:`~repro.runtime.machine.Machine` delivers every
message exactly once, intact and in order.  Real message-passing machines
do not, and the inspector/executor protocol (paper Sec. 3.2.3) trusts its
communication schedules forever once built — so we need evidence that the
executors stay correct under imperfect delivery.  This module supplies the
adversary:

* :class:`FaultPlan` — a *seeded, declarative* description of what can go
  wrong: per-message drop / duplication / corruption probabilities, a
  per-destination reorder probability, per-rank stall probability, and an
  explicit list of ``(rank, executor step)`` schedule-corruption events.
  Plans serialize to/from JSON so a failing run's plan can be uploaded as
  a CI artifact and replayed bit-for-bit.
* :class:`DeliveryConfig` — the hardened protocol's knobs: bounded
  retries with a modeled timeout and exponential backoff.
* :class:`FaultInjector` — the runtime object the machine's delivery
  layer consults once per delivery attempt.  Every decision is drawn from
  a :class:`numpy.random.SeedSequence` keyed on
  ``(plan seed, kind, src, dst, seq, attempt)`` — *not* from a shared
  stream — so decisions are independent of iteration order and a replay
  with the same plan makes identical choices.

Determinism contract: with the same plan (and the same rank programs),
two runs produce byte-identical results, communication matrices, retry
counts and fault-event logs.  Wall-clock span durations are the only
nondeterministic quantity.

The module also hosts the *schedule validation* half of the recovery
story: :func:`schedule_checksum` fingerprints a gather schedule (the
materialized ``RecvInd`` of paper Eq. 22) and :func:`ensure_valid_schedule`
is an SPMD subroutine executors run each step under fault injection —
ranks agree (one allreduce) on whether anyone's schedule is corrupt and,
if so, collectively re-run the inspector (``inspector.rebuild`` span,
``runtime.reinspections`` metric).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import CommFailureError
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace

__all__ = [
    "FaultPlan",
    "DeliveryConfig",
    "Fate",
    "FaultEvent",
    "FaultInjector",
    "active_injector",
    "payload_checksum",
    "corrupt_payload",
    "schedule_checksum",
    "corrupt_schedule",
    "ensure_valid_schedule",
]

# Entropy domain tags keep the decision streams of different fault kinds
# disjoint even when (src, dst, seq, attempt) coincide.
_TAG_FATE = 1
_TAG_REORDER = 2
_TAG_STALL = 3
_TAG_CORRUPT_DATA = 4
_TAG_CORRUPT_SCHED = 5


@dataclass(frozen=True)
class FaultPlan:
    """Seeded declarative fault model (all probabilities per *attempt*).

    ``corrupt_schedule`` lists explicit ``(rank, executor_step)`` events:
    before that rank's step of that index, its gather schedule is damaged
    in place (simulating memory corruption of ``RecvInd``), exercising the
    checksum/re-inspection recovery path.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    stall: float = 0.0
    stall_seconds: float = 1e-4
    corrupt_schedule: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder", "corrupt", "stall"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} probability {v} outside [0, 1]")
        # normalize for hashability/serialization regardless of caller type
        object.__setattr__(
            self,
            "corrupt_schedule",
            tuple((int(r), int(s)) for r, s in self.corrupt_schedule),
        )

    @property
    def quiet(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.drop == self.duplicate == self.reorder == 0.0
            and self.corrupt == self.stall == 0.0
            and not self.corrupt_schedule
        )

    # -- replay / artifact support -------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = dict(json.loads(text))
        doc["corrupt_schedule"] = tuple(
            (int(r), int(s)) for r, s in doc.get("corrupt_schedule", ())
        )
        return cls(**doc)

    def describe(self) -> str:
        on = [
            f"{k}={getattr(self, k)}"
            for k in ("drop", "duplicate", "reorder", "corrupt", "stall")
            if getattr(self, k) > 0
        ]
        if self.corrupt_schedule:
            on.append(f"corrupt_schedule={list(self.corrupt_schedule)}")
        return f"FaultPlan(seed={self.seed}" + (
            ", " + ", ".join(on) + ")" if on else ", quiet)"
        )


@dataclass(frozen=True)
class DeliveryConfig:
    """Hardened delivery protocol parameters.

    A message is retransmitted until acknowledged, at most ``max_retries``
    times beyond the first attempt; retry k charges the *sender* a modeled
    wait of ``timeout * backoff**(k-1)`` seconds (the ack timeout) which
    shows up in that superstep's compute column.  Exhausting the budget
    raises :class:`~repro.errors.CommFailureError` — the protocol never
    hands corrupt or missing data to the application.
    """

    max_retries: int = 8
    timeout: float = 1e-4
    backoff: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout < 0 or self.backoff < 1.0:
            raise ValueError("need timeout >= 0 and backoff >= 1")

    def retry_wait(self, attempt: int) -> float:
        """Modeled sender wait before retransmission number ``attempt``."""
        return self.timeout * self.backoff ** max(0, attempt - 1)


@dataclass(frozen=True)
class Fate:
    """The injector's verdict for one delivery attempt."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or protocol reaction), in deterministic order."""

    kind: str  # drop|duplicate|corrupt|reorder|stall|dup_suppressed|...
    step: int  # machine superstep counter
    src: int = -1
    dst: int = -1
    seq: int = -1
    attempt: int = 0

    def as_tuple(self) -> tuple:
        return (self.kind, self.step, self.src, self.dst, self.seq, self.attempt)


class FaultInjector:
    """Stateful per-run adversary; consulted by the machine's delivery layer.

    All randomness is derived per-decision from ``SeedSequence`` entropy
    ``[seed, tag, *coordinates]`` so outcomes do not depend on the order
    in which the machine happens to ask.  Mutable state (sequence-number
    counters, delivered-set, event log) is cleared by :meth:`reset`, which
    ``Machine.run`` calls at run start — two runs on the same machine are
    therefore identical.
    """

    def __init__(self, plan: FaultPlan, delivery: DeliveryConfig | None = None):
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.delivery = delivery or DeliveryConfig()
        self._seed = int(plan.seed) & (2**63 - 1)
        self._sched_events = set(plan.corrupt_schedule)
        self.reset()

    # -- per-run state --------------------------------------------------
    def reset(self) -> None:
        self._seq: dict[tuple[int, int], int] = {}
        self.events: list[FaultEvent] = []
        self.retries_total = 0

    def next_seq(self, src: int, dst: int) -> int:
        key = (src, dst)
        s = self._seq.get(key, 0)
        self._seq[key] = s + 1
        return s

    # -- seeded decisions ------------------------------------------------
    def _rng(self, tag: int, *coords: int) -> np.random.Generator:
        entropy = [self._seed, tag] + [int(c) & (2**63 - 1) for c in coords]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def fate(self, src: int, dst: int, seq: int, attempt: int) -> Fate:
        """Verdict for delivery attempt ``attempt`` of message (src,dst,seq)."""
        p = self.plan
        if p.drop == p.duplicate == p.corrupt == 0.0:
            return Fate()
        u = self._rng(_TAG_FATE, src, dst, seq, attempt).random(3)
        return Fate(
            drop=bool(u[0] < p.drop),
            duplicate=bool(u[1] < p.duplicate),
            corrupt=bool(u[2] < p.corrupt),
        )

    def reorder_perm(self, dst: int, step: int, n: int) -> np.ndarray | None:
        """Arrival-order permutation of rank ``dst``'s inbox this superstep
        (None when arrivals stay in send order)."""
        if n < 2 or self.plan.reorder <= 0.0:
            return None
        rng = self._rng(_TAG_REORDER, dst, step)
        if rng.random() >= self.plan.reorder:
            return None
        perm = rng.permutation(n)
        if np.array_equal(perm, np.arange(n)):
            return None
        return perm

    def stall_seconds(self, rank: int, step: int) -> float:
        """Modeled stall of ``rank`` at superstep ``step`` (0.0 = none)."""
        if self.plan.stall <= 0.0:
            return 0.0
        if self._rng(_TAG_STALL, rank, step).random() < self.plan.stall:
            return float(self.plan.stall_seconds)
        return 0.0

    def corrupt_schedule_now(self, rank: int, exec_step: int) -> bool:
        return (int(rank), int(exec_step)) in self._sched_events

    def corruption_rng(self, *coords: int) -> np.random.Generator:
        return self._rng(_TAG_CORRUPT_DATA, *coords)

    # -- event log / observability --------------------------------------
    def record(
        self,
        kind: str,
        step: int,
        src: int = -1,
        dst: int = -1,
        seq: int = -1,
        attempt: int = 0,
    ) -> None:
        self.events.append(FaultEvent(kind, step, src, dst, seq, attempt))
        _metrics.record("runtime.faults", 1, kind=kind)
        _trace.instant(
            f"fault.{kind}",
            tid="faults",
            step=step,
            src=src,
            dst=dst,
            seq=seq,
            attempt=attempt,
        )

    def event_log(self) -> list[tuple]:
        """Canonical (hashable, timestamp-free) view of the event log."""
        return [e.as_tuple() for e in self.events]


# ----------------------------------------------------------------------
# payload checksums & corruption
# ----------------------------------------------------------------------
def _canonical_bytes(obj, out: list[bytes]) -> None:
    """Canonical byte serialization for checksumming (numpy-aware).

    Covers every payload shape the rank programs exchange: numpy arrays,
    scalars, ints/floats/bools, bytes/str, None, and dicts/tuples/lists of
    those.  Dict items are serialized sorted by key repr so the checksum
    does not depend on insertion order.
    """
    if obj is None:
        out.append(b"\x00N")
    elif isinstance(obj, np.ndarray):
        out.append(b"\x01A" + str(obj.dtype).encode() + str(obj.shape).encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        out.append(b"\x02S" + str(obj.dtype).encode() + obj.tobytes())
    elif isinstance(obj, (bool, int, float)):
        out.append(b"\x03P" + repr(obj).encode())
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        out.append(b"\x04B" + bytes(obj))
    elif isinstance(obj, str):
        out.append(b"\x05T" + obj.encode())
    elif isinstance(obj, dict):
        out.append(b"\x06D%d" % len(obj))
        for k in sorted(obj, key=repr):
            _canonical_bytes(k, out)
            _canonical_bytes(obj[k], out)
    elif isinstance(obj, (tuple, list)):
        out.append(b"\x07L%d" % len(obj))
        for x in obj:
            _canonical_bytes(x, out)
    else:  # opaque: identity-free type fingerprint
        out.append(b"\x08O" + type(obj).__name__.encode() + repr(obj).encode())


def payload_checksum(obj) -> int:
    """CRC32 over the canonical serialization of a payload.

    This is the integrity check the hardened delivery protocol attaches to
    every message envelope: a corrupted payload fails the compare at the
    receiver and is NACKed (retried) instead of delivered.
    """
    parts: list[bytes] = []
    _canonical_bytes(obj, parts)
    crc = 0
    for p in parts:
        crc = zlib.crc32(p, crc)
    return crc


def corrupt_payload(obj, rng: np.random.Generator):
    """A deterministically damaged copy of ``obj`` — or None when the
    payload has no mutable numeric content to damage (empty arrays, empty
    containers); the delivery layer then lets the original through."""
    if isinstance(obj, np.ndarray):
        if obj.size == 0:
            return None
        bad = np.array(obj, copy=True)
        flat = bad.reshape(-1)
        k = int(rng.integers(flat.size))
        if bad.dtype.kind in "fc":
            flat[k] = flat[k] * 3.0 + 1.0 if flat[k] != 0 else 1.0
        elif bad.dtype.kind in "iu":
            flat[k] = flat[k] + 1
        elif bad.dtype.kind == "b":
            flat[k] = ~flat[k]
        else:
            return None
        return bad
    if isinstance(obj, (bool, np.bool_)):
        return not bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj) + 1
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f * 3.0 + 1.0 if f != 0.0 else 1.0
    if isinstance(obj, (bytes, bytearray)):
        if len(obj) == 0:
            return None
        b = bytearray(obj)
        k = int(rng.integers(len(b)))
        b[k] ^= 0xFF
        return bytes(b) if isinstance(obj, bytes) else b
    if isinstance(obj, tuple):
        return _corrupt_sequence(list(obj), rng, tuple)
    if isinstance(obj, list):
        return _corrupt_sequence(list(obj), rng, list)
    if isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            bad = corrupt_payload(obj[k], rng)
            if bad is not None:
                out = dict(obj)
                out[k] = bad
                return out
        return None
    return None


def _corrupt_sequence(items: list, rng, ctor):
    for i, x in enumerate(items):
        bad = corrupt_payload(x, rng)
        if bad is not None:
            items[i] = bad
            return ctor(items)
    return None


# ----------------------------------------------------------------------
# the machine-global injector (set by Machine.run for its duration)
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The injector of the currently-running machine, if any.

    The machine runs all ranks in lockstep on one thread, so a module
    global is unambiguous; rank programs use this to decide whether to run
    the (collective) schedule-validation protocol.
    """
    return _ACTIVE


class _activation:
    """Context manager installing an injector for the span of one run."""

    def __init__(self, injector: FaultInjector | None):
        self.injector = injector

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.injector
        return self.injector

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev
        return False


# ----------------------------------------------------------------------
# schedule validation & recovery (the RecvInd checksum path)
# ----------------------------------------------------------------------
def schedule_checksum(sched) -> int:
    """CRC32 fingerprint of a gather schedule's index structures.

    Covers everything the executor trusts: the ghost directory
    (``ghost_global``), per-peer send/recv index lists, and the
    self-resolution arrays.  Any single-element corruption changes it.
    """
    parts: list[bytes] = []
    _canonical_bytes(np.asarray(sched.ghost_global), parts)
    for name in ("send_locals", "recv_slots"):
        d = getattr(sched, name)
        parts.append(name.encode())
        for q in sorted(d):
            parts.append(b"%d:" % q)
            _canonical_bytes(np.asarray(d[q]), parts)
    _canonical_bytes(np.asarray(sched.self_slots), parts)
    _canonical_bytes(np.asarray(sched.self_locals), parts)
    crc = 0
    for p in parts:
        crc = zlib.crc32(p, crc)
    return crc


def corrupt_schedule(sched, rng: np.random.Generator) -> bool:
    """Damage one index of the schedule in place (memory-corruption model).

    Picks the first nonempty structure among the ghost directory, the
    per-peer recv slots and the per-peer send lists.  Returns False when
    the schedule is entirely empty (nothing to corrupt).
    """
    if sched.nghost:
        k = int(rng.integers(sched.nghost))
        sched.ghost_global[k] = sched.ghost_global[k] + 1
        return True
    for d in (sched.recv_slots, sched.send_locals):
        for q in sorted(d):
            if len(d[q]):
                arr = np.array(d[q], copy=True)
                arr[int(rng.integers(len(arr)))] += 1
                d[q] = arr
                return True
    return False


def ensure_valid_schedule(strategy):
    """SPMD subroutine: validate this rank's schedule, recover collectively.

    No-op (and, crucially, *no collective*) when no fault injector is
    active — the happy path is byte-identical to pre-fault-layer behavior.
    Under injection every executor step starts with:

    1. apply any planned schedule corruption for (rank, step),
    2. recompute the schedule checksum, compare against the fingerprint of
       the schedule ``setup()`` built (read before step 1),
    3. one allreduce: do *all* ranks still hold valid schedules?
    4. if not, every rank re-runs its inspector (``rebuild_schedule``) —
       re-inspection is collective, exactly like the original inspection —
       and verifies the rebuilt schedule matches the original fingerprint.

    Returns True when a re-inspection happened.  Raises
    :class:`~repro.errors.CommFailureError` if re-inspection does not
    restore the expected schedule.
    """
    inj = active_injector()
    if inj is None:
        return False
    step = getattr(strategy, "_exec_step", -1) + 1
    strategy._exec_step = step
    rank = strategy.rank
    expected = strategy._sched_sum  # read before this step may damage the schedule
    if inj.corrupt_schedule_now(rank, step):
        if corrupt_schedule(strategy.sched, inj._rng(_TAG_CORRUPT_SCHED, rank, step)):
            inj.record("schedule_corrupt", step=step, src=rank, dst=rank)
    ok = int(schedule_checksum(strategy.sched) == expected)
    n_ok = yield ("allreduce", ok)
    if n_ok == strategy.sched.nprocs:
        return False
    if not ok:
        inj.record("schedule_invalid", step=step, src=rank, dst=rank)
    # a corrupt schedule disqualifies its cache entry: drop it BEFORE
    # re-inspecting so the rebuild can never be served from the cache and
    # later setups can never reuse an entry whose integrity was questioned
    cache = getattr(strategy, "_sched_cache", None)
    cache_key = getattr(strategy, "_sched_cache_key", None)
    if cache is not None and cache_key is not None:
        cache.invalidate(cache_key)
    with _trace.span("inspector.rebuild", rank=rank, step=step):
        _metrics.record("runtime.reinspections", 1)
        new_sched = yield from strategy.rebuild_schedule()
    if schedule_checksum(new_sched) != expected:
        raise CommFailureError(
            f"rank {rank}: re-inspection did not restore the communication "
            f"schedule (step {step}); refusing to run on corrupt RecvInd"
        )
    # the fingerprint proves the rebuild matches the original bytes; the
    # structural checker additionally proves the original was well-formed
    # (covered ghost slots, sorted directory, in-range send offsets)
    from repro.analysis.schedule import verify_rebuilt_schedule

    rebuilt_report = verify_rebuilt_schedule(strategy, new_sched)
    if not rebuilt_report.ok:
        raise CommFailureError(
            f"rank {rank}: rebuilt schedule failed verification (step "
            f"{step}):\n{rebuilt_report.render('error')}"
        )
    if cache is not None and cache_key is not None:
        # re-install the verified rebuild (fingerprint-checked above)
        cache.put(cache_key, new_sched)
    strategy.sched = new_sched
    return True
