"""Timing, statistics and result bookkeeping shared by the workloads."""

from __future__ import annotations

import gc
import math
import statistics
import time
import zlib

import numpy as np

from spans import Recorder

__all__ = ["Section", "Speed", "Summary", "geomean", "round_robin"]


class Speed:
    """The machine's speed, sampled alongside every measurement.

    The build VM's effective speed swings by 1.3-2x over seconds to minutes
    (neighbours on the host; the other vCPU is idle while it happens), so
    raw medians of back-to-back runs differ by 15-50 %.  A *tick* is a
    fixed piece of work in four parts, each slowed by a different kind of
    contention: an interpreter loop (ALU, L1), dictionary look-ups across
    a 300 000-entry dict (interpreter work that misses the caches), a
    numpy gather-multiply-reduce in L2, and one pass over a 4 MB array
    (memory traffic).  Ticks are taken right before timed calls; a
    duration is then divided by the *speed factor* near it — the weighted
    geometric mean of the parts, each relative to its nominal time — i.e.
    reported as the time it would have taken at the reference speed.

    The weights are a least-squares fit of log(time) of four unlike
    operations (a CG solve, a 5e5-entry SpMV, cold compiles, an autoplan)
    on the logs of the parts over 300 s of a noisy period; the four fits
    agreed to within 0.1 per part, and with the shared weights the spread
    of 8-16 s window medians fell from 0.07-0.14 to 0.02-0.03.  The tick
    is benchmark code: no change under ``src/`` can move it, and the
    nominal times are constants, so runs and commits share one scale.
    """

    #: (weight, nominal ns on the build box in its usual state) per part
    PARTS = {"py": (0.25, 80_000.0), "obj": (0.35, 360_000.0), "np": (0.20, 140_000.0), "mem": (0.20, 210_000.0)}
    SMOOTH = 7  # running-median window over consecutive ticks
    MIN_GAP_NS = 4_000_000  # in a stream of short calls, one tick per 4 ms

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(20_000)
        self._b = rng.standard_normal(20_000)
        self._idx = rng.integers(0, 20_000, 20_000)
        self._out = np.empty(20_000)
        self._big = rng.standard_normal(1 << 19)
        self._dict = {k: k + 1 for k in range(300_000)}
        self._keys = [int(k) for k in rng.integers(0, 300_000, 1500)]
        self._t: list[int] = []
        self._ns: dict[str, list[int]] = {part: [] for part in self.PARTS}
        self._curve = None

    def tick(self) -> None:
        lookup = self._dict
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(3000):
            x += i
        t1 = time.perf_counter_ns()
        for k in self._keys:
            x += lookup[k]
        t2 = time.perf_counter_ns()
        for _ in range(3):  # gather, multiply, reduce: no BLAS, no allocation
            np.take(self._a, self._idx, out=self._out)
            np.multiply(self._out, self._b, out=self._out)
            np.add.reduce(self._out)
        t3 = time.perf_counter_ns()
        np.add.reduce(self._big)
        t4 = time.perf_counter_ns()
        self._t.append(t2)
        for part, ns in zip(("py", "obj", "np", "mem"), (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            self._ns[part].append(ns)
        self._curve = None

    def tick_before_call(self) -> None:
        """Ticks due before a timed call: none if one was just taken, one
        in a stream of short calls, three after a long call (they are then
        the only ticks near it, so their own noise matters more)."""
        age = time.perf_counter_ns() - self._t[-1] if self._t else 1 << 62
        if age > self.MIN_GAP_NS:
            for _ in range(3 if age > 10 * self.MIN_GAP_NS else 1):
                self.tick()

    def factors(self) -> np.ndarray:
        """Every tick so far as a speed factor (> 1: slower than nominal)."""
        log = sum(
            weight * np.log(np.asarray(self._ns[part], dtype=np.float64) / nominal)
            for part, (weight, nominal) in self.PARTS.items()
        )
        return np.exp(log)

    def factor_at(self, t_ns):
        """Speed factor at time(s) ``t_ns``: running median over ticks,
        interpolated in time."""
        if self._curve is None:
            k = self.SMOOTH // 2
            padded = np.pad(self.factors(), (k, k), mode="edge")
            smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, self.SMOOTH), axis=1)
            self._curve = (np.asarray(self._t, dtype=np.float64), smooth)
        return np.interp(np.asarray(t_ns, dtype=np.float64), *self._curve)

    def normalise(self, start_ns, dur_ns):
        """Durations as they would read at the reference speed."""
        start_ns = np.asarray(start_ns, dtype=np.float64)
        dur_ns = np.asarray(dur_ns, dtype=np.float64)
        return dur_ns / self.factor_at(start_ns + dur_ns / 2)

    def summary(self) -> str:
        f = self.factors()
        return (
            f"machine speed factor (tick / nominal): median {np.median(f):.2f}, "
            f"p10 {np.quantile(f, 0.1):.2f}, p90 {np.quantile(f, 0.9):.2f}, {len(f)} ticks"
        )


def round_robin(
    fns, seconds: float, speed: Speed, min_rounds: int = 3, keep: bool = False,
    collect_each: bool = False, on_result=None,
):
    """Call every function once per round until ``seconds`` have passed.

    Returns one array of speed-normalised nanosecond samples per function;
    with ``keep`` also the functions' return values and the speed factor
    each sample was divided by.  Interleaving rows spreads drift over all of them; a tick precedes each
    call; the collector is off inside every timed call and runs between
    rounds — or, with ``collect_each``, after every call: operations that
    leave tens of MB of cyclic garbage would otherwise grow the heap
    through fresh pages, the dearest thing on the build VM.  Rounds are
    whole, so every row has the same sample count.
    """
    starts = [[] for _ in fns]
    durs = [[] for _ in fns]
    kept = [[] for _ in fns]
    begin = time.perf_counter()
    rounds = 0
    # another round starts only if at least half of it fits the budget
    while rounds < min_rounds or (time.perf_counter() - begin) * (1 + 0.5 / rounds) < seconds:
        gc.disable()
        try:
            for i, fn in enumerate(fns):
                speed.tick_before_call()
                t0 = time.perf_counter_ns()
                out = fn()
                t1 = time.perf_counter_ns()
                starts[i].append(t0)
                durs[i].append(t1 - t0)
                if keep:
                    kept[i].append(out)
                if on_result is not None:
                    on_result(i, out)  # checks run here, outside the timed call
                if collect_each:
                    del out
                    gc.collect()
        finally:
            gc.enable()
        gc.collect()
        rounds += 1
    for _ in range(3):
        speed.tick()
    samples = [speed.normalise(s, d) for s, d in zip(starts, durs)]
    if not keep:
        return samples
    factors = [np.asarray(d, dtype=np.float64) / s for d, s in zip(durs, samples)]
    return samples, kept, factors


class Summary:
    """Median, the highest percentile with >= 10 samples beyond it, count."""

    __slots__ = ("median", "tail_label", "tail", "count")

    def __init__(self, values):
        v = np.sort(np.asarray(values, dtype=np.float64))
        self.count = len(v)
        self.median = float(np.median(v))
        self.tail_label, self.tail = "", float("nan")
        for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9), ("p75", 0.75)):
            if self.count * (1.0 - q) >= 10:
                self.tail_label, self.tail = label, float(np.quantile(v, q))
                break

    def text(self, scale: float = 1.0, digits: int = 3) -> str:
        tail = (
            f"{self.tail_label} {self.tail * scale:.{digits}f}"
            if self.tail_label
            else "tail n/a (<40 samples)"
        )
        return f"median {self.median * scale:.{digits}f}  {tail}  n={self.count}"


def geomean(values) -> float:
    values = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Section:
    """One workload's run at one scale: seed, budget, results.

    ``e2e`` and ``layer`` map metric name -> value; ``exact`` names the
    counts that must repeat for a seed; ``rows`` are printable detail
    lines.  :meth:`check` is the failure accounting: every operation's
    result is compared with an independent reference and a miss counts.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        scale: str,
        seconds: float,
        trace: bool,
        corrupt_reference: bool = False,
        home: bool = True,
        speed: Speed | None = None,
    ):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.trace = trace
        self.corrupt_reference = corrupt_reference
        #: the run's named workload (False: part of the cross-section)
        self.home = home
        self.recorder = Recorder(enabled=trace)
        self.speed = speed or Speed()  # one per process: its ticks are one curve
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.exact: set[str] = set()
        self.rows: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprint = ""
        self.setup_s = 0.0
        self._from_coo_ms: dict[str, list[float]] = {}

    def rng(self, *tags) -> np.random.Generator:
        """A generator keyed on the seed and a tag: streams of different
        tags are independent, so adding a draw never shifts another."""
        return np.random.default_rng([self.seed, zlib.crc32(repr(tags).encode())])

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(f"{self.name}: {what}")
        return bool(ok)

    def close(self, got, want, rtol: float, what: str) -> bool:
        """Relative max-norm check against an independent reference."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if self.corrupt_reference:
            want = want + 1.0
        if got.shape != want.shape:
            return self.check(False, f"{what}: shape {got.shape} != {want.shape}")
        scale = float(np.max(np.abs(want))) or 1.0
        err = float(np.max(np.abs(got - want))) / scale
        return self.check(err <= rtol, f"{what}: relative error {err:.2e} > {rtol:.0e}")

    def count(self, name: str, value) -> None:
        """A per-layer count that must repeat exactly for a given seed."""
        self.layer[name] = float(value)
        self.exact.add(name)

    def convert(self, fname: str, cls, coo):
        """``cls.from_coo(coo)``, timed into ``formats.from_coo_ms.<fname>``."""
        t0 = time.perf_counter_ns()
        out = cls.from_coo(coo)
        self._from_coo_ms.setdefault(fname, []).append((time.perf_counter_ns() - t0) * 1e-6)
        return out

    def finish(self) -> None:
        """Fold the bookkeeping kept during the run into ``layer``."""
        for fname, ms in self._from_coo_ms.items():
            self.layer[f"formats.from_coo_ms.{fname}"] = statistics.median(ms)
        self.layer["failed_share"] = self.failed / max(1, self.attempted)

    def timed_setup(self, build):
        """Run ``build`` three times (once in the cross-section, whose
        set-up time is not reported); return the last product and add the
        median time to ``setup_s``.  The first repeat pays the process's
        page faults and lazy imports, the median does not."""
        times, product = [], None
        for _ in range(3 if self.home else 1):
            product = None  # free the previous product before rebuilding
            gc.collect()
            for _ in range(self.speed.SMOOTH):
                self.speed.tick()
            t0 = time.perf_counter_ns()
            product = build()
            t1 = time.perf_counter_ns()
            for _ in range(self.speed.SMOOTH):
                self.speed.tick()
            times.append((t0, t1 - t0))
        norm = self.speed.normalise([t for t, _ in times], [d for _, d in times])
        self.setup_s += float(np.median(norm)) * 1e-9
        return product

    def round_robin(self, fns, seconds: float, **kw):
        return round_robin(fns, seconds, self.speed, **kw)

    def span_us(self, which: str = "durations", per_op: bool = False) -> dict[str, np.ndarray]:
        """Layer name -> speed-normalised microseconds of each of its spans
        (``which`` = ``durations`` or ``self_times``); with ``per_op`` the
        spans of one name within one operation are summed first (a
        two-statement program has two plan spans per compile)."""
        rec = self.recorder
        starts: dict[str, list[int]] = {}
        ops: dict[str, list[int]] = {}
        for name, start, _end, _parent, op in rec.spans:
            starts.setdefault(name, []).append(start)
            ops.setdefault(name, []).append(op)
        out = {}
        for name, ns in getattr(rec, which)().items():
            us = self.speed.normalise(starts[name], ns) * 1e-3
            if per_op:
                _ids, inverse = np.unique(ops[name], return_inverse=True)
                us = np.bincount(inverse, weights=us)
            out[name] = us
        return out
