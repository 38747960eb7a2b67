"""Workload ``service_open`` — a service below saturation, then at capacity.

``CompileSolveService(workers=2, private PlanCache)`` under an *open*
loop: requests are sent on a fixed 150 req/s schedule whatever the
service does, 90 % ``compile`` over 32 prefilled structural keys and 10 %
``solve_cg`` (n = 400, 20 iterations), four tenants.  Latency is timed
from each request's *due* time, so a stall is charged to every request it
delays, and the generator's own lateness is reported.  Below saturation
(~40 % of what two workers sustain) the median measures admission +
thread hop + handler; the closed-loop tail (two clients, each waiting for
its reply) measures capacity.  The generator sleeps between sends.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import inputs
import oracle
from measure import Section, Summary

from repro import COOMatrix, CRSMatrix, DenseVector
from repro.compiler.plan_cache import PlanCache
from repro.service import CompileSolveService, ServiceConfig

SPMV = "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }"
RATE = 150.0  # req/s in the open phase
KEYS = 32
SOLVE_EVERY = 10  # one request in ten is a solve_cg
SOLVE_ITERS = 20
TENANTS = ("alice", "bob", "carol", "dave")
STATUSES = ("ok", "shed", "rejected", "timed_out", "error")
SEGMENT_S = 1.0  # ticks are taken between open-phase segments
OPEN_SHARE, CLOSED_SHARE = 0.65, 0.25


class Load:
    """The service, its prefilled kernels, and the seeded request stream."""

    def __init__(self, section: Section):
        rng = section.rng("service_open")
        self.t = inputs.spd_values("grid2d", inputs.grid2d(20), rng)
        n = self.t.n
        coo = COOMatrix.from_entries((n, n), self.t.row, self.t.col, self.t.val)
        self.A = section.convert("CRS", CRSMatrix, coo)
        self.diag = self.t.val[self.t.row == self.t.col]
        self.rhs = [rng.standard_normal(n) for _ in range(4)]
        self.fmts = {"A": self.A, "X": DenseVector(np.ones(n)), "Y": DenseVector.zeros(n)}
        self.plan_cache = PlanCache("pipeline-bench-service")
        self.svc = CompileSolveService(ServiceConfig(workers=2, plan_cache=self.plan_cache)).start()
        self.kernels = [self.svc.request(*self.compile_request(k)[:2]).value["kernel"] for k in range(KEYS)]
        self.svc.request(*self.solve_request(0)[:2])  # warms the solver's SpMV kernel
        # one solve at a seeded place in every block of ten requests: the
        # share is exact and even a short open phase contains solves
        stream = section.rng("service_open", "stream")
        blocks = 1 << 12
        self.is_solve = np.zeros(blocks * SOLVE_EVERY, dtype=bool)
        self.is_solve[np.arange(blocks) * SOLVE_EVERY + stream.integers(0, SOLVE_EVERY, blocks)] = True
        self.pick = stream.integers(0, 1 << 30, len(self.is_solve))

    def compile_request(self, k: int):
        payload = {"source": SPMV, "formats": self.fmts, "extra_key": ("svc", k)}
        return "compile", payload, k

    def solve_request(self, k: int):
        payload = {"A": self.A, "b": self.rhs[k], "diag": self.diag, "maxiter": SOLVE_ITERS, "tol": 0.0}
        return "solve_cg", payload, k

    def request(self, i: int):
        """(kind, payload, key, tenant) of the i-th request of the stream."""
        i %= len(self.pick)
        if self.is_solve[i]:
            req = self.solve_request(int(self.pick[i]) % len(self.rhs))
        else:
            req = self.compile_request(int(self.pick[i]) % KEYS)
        return (*req, TENANTS[i % len(TENANTS)])

    def stop(self) -> None:
        self.svc.stop()


def run(section: Section) -> None:
    rec, speed = section.recorder, section.speed
    loads: list[Load] = []

    def build():
        for old in loads:
            old.stop()
        loads[:] = [Load(section)]
        return loads[0]

    load = section.timed_setup(build)
    try:
        measure(section, load, rec, speed)
    finally:
        load.stop()


def measure(section: Section, load: Load, rec, speed) -> None:
    section.fingerprint = inputs.fingerprint([load.t, *load.rhs, load.is_solve[:4096], load.pick[:4096]])
    want = [oracle.pcg_fixed(load.t, b, SOLVE_ITERS) for b in load.rhs]
    svc = load.svc

    def verify(kind, key, resp) -> None:
        if resp.status != "ok":
            section.check(False, f"{kind} request resolved {resp.status}: {resp.error}")
        elif kind == "compile":
            section.check(
                resp.value["outcome"] == "hit" and resp.value["kernel"] is load.kernels[key]
                and not section.corrupt_reference,
                f"compile key {key}: outcome {resp.value['outcome']}",
            )
        else:
            ok = section.close(resp.value["x"], want[key], 1e-9, f"solve_cg rhs {key}")
            if ok and resp.value["iterations"] != SOLVE_ITERS:
                section.check(False, f"solve_cg ran {resp.value['iterations']} iterations")

    # ---- open phase: fixed schedule, latency from the due time ----
    n_open = max(20, int(RATE * section.seconds * OPEN_SHARE))
    per_segment = int(RATE * SEGMENT_S)
    latency, solve_latency, late, submit = [], [], [], []
    queue_ms, handle_ms, total_ms = [], [], []
    statuses = dict.fromkeys(STATUSES, 0)
    cache_before = load.plan_cache.stats()
    sent = 0
    while sent < n_open:
        count = min(per_segment, n_open - sent)
        for _ in range(speed.SMOOTH):
            speed.tick()
        done = [0] * count
        futures, dues, subs = [], [], []
        t0 = time.perf_counter_ns() + 2_000_000

        def on_done(_f, j, done=done):
            done[j] = time.perf_counter_ns()

        for j in range(count):
            kind, payload, key, tenant = load.request(sent + j)
            due = t0 + int(j * 1e9 / RATE)
            wait = due - time.perf_counter_ns()
            if wait > 0:
                time.sleep(wait * 1e-9)
            s0 = time.perf_counter_ns()
            fut = svc.submit(kind, payload, tenant)
            s1 = time.perf_counter_ns()
            fut.add_done_callback(lambda f, j=j: on_done(f, j))
            futures.append((fut, kind, key))
            dues.append(due)
            subs.append((s0, s1))
        responses = [f.result(timeout=60) for f, _k, _key in futures]
        for _ in range(speed.SMOOTH):
            speed.tick()
        for j, ((fut, kind, key), resp) in enumerate(zip(futures, responses)):
            verify(kind, key, resp)
            statuses[resp.status] += 1
            s0, s1 = subs[j]
            lat = float(speed.normalise(dues[j], done[j] - dues[j]))
            latency.append(lat)
            if kind == "solve_cg":
                solve_latency.append(lat)
            late.append(max(0, s0 - dues[j]))
            submit.append(s1 - s0)
            queue_ms.append(resp.queue_ms)
            handle_ms.append(resp.handle_ms)
            total_ms.append(resp.total_ms)
            if section.trace:
                sid = rec.add("service.request", dues[j], done[j], -1, sent + j + 1)
                q_end = s0 + int(resp.queue_ms * 1e6)
                rec.add("service.admission", s0, s1, sid, sent + j + 1)
                rec.add("service.queue", s1, max(s1, q_end), sid, sent + j + 1)
                rec.add("service.handler", q_end, q_end + int(resp.handle_ms * 1e6), sid, sent + j + 1)
        sent += count
    cache_after = load.plan_cache.stats()

    # ---- closed tail: two clients, each waits for its reply ----
    tail_s = section.seconds * CLOSED_SHARE
    completed = [0, 0]
    tail_checks: list[tuple] = []
    for _ in range(speed.SMOOTH):
        speed.tick()
    t_start = time.perf_counter_ns()
    deadline = t_start + int(tail_s * 1e9)

    def client(c: int) -> None:
        i = n_open + c
        while time.perf_counter_ns() < deadline:
            kind, payload, key, tenant = load.request(i)
            resp = svc.request(kind, payload, tenant)
            tail_checks.append((kind, key, resp))
            completed[c] += 1
            i += 2

    threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    t_end = time.perf_counter_ns()
    for _ in range(speed.SMOOTH):
        speed.tick()
    for kind, key, resp in tail_checks:
        verify(kind, key, resp)
    elapsed_ns = float(speed.normalise(t_start, t_end - t_start))

    lat, sol = Summary(latency), Summary(solve_latency)
    section.e2e["svc_p50_ms"] = lat.median * 1e-6
    section.e2e["svc_solve_p50_ms"] = sol.median * 1e-6
    section.e2e["svc_closed_rps"] = sum(completed) / (elapsed_ns * 1e-9)
    section.rows.append(f"open {RATE:.0f} req/s: latency from due  {lat.text(1e-6)} ms")
    section.rows.append(f"open {RATE:.0f} req/s: solve_cg only     {sol.text(1e-6)} ms")
    section.rows.append(
        f"closed tail, 2 clients: {sum(completed)} requests in {elapsed_ns * 1e-9:.2f} s "
        f"(reference speed) = {section.e2e['svc_closed_rps']:.0f} req/s"
    )
    section.rows.append(
        f"generator lateness {Summary(late).text(1e-6)} ms; open-phase statuses {statuses}"
    )

    lay = section.layer
    lay["service.admission.submit_us"] = float(np.median(submit)) * 1e-3
    for name, values in (("queue_ms", queue_ms), ("handle_ms", handle_ms)):
        lay[f"service.{name}.p50"] = float(np.quantile(values, 0.5))
        lay[f"service.{name}.p99"] = float(np.quantile(values, 0.99))
    lay["service.total_ms.p99"] = float(np.quantile(total_ms, 0.99))
    lay["service.generator_late_ms.p99"] = float(np.quantile(late, 0.99)) * 1e-6
    for status, n in statuses.items():
        section.count(f"service.status.{status}", n)
    for key in ("hits", "misses", "evictions"):
        section.count(f"compiler.plan_cache.{key}", cache_after[key] - cache_before[key])
    section.count("compiler.plan_cache.size", cache_after["size"])
