"""Request handlers: what a service worker actually runs.

Each handler is a plain function ``handler(payload, ctx) -> dict`` — the
payload is the request's keyword dict, the context carries the shared
caches, and the returned dict becomes ``ServiceResponse.value``.  Three
handlers ship with the service:

``compile``
    The cached-module front door (PyOP2's architecture), and the same one
    :func:`~repro.compiler.kernels.compile_kernel` uses:
    :func:`~repro.compiler.kernels.compile_request` against the service's
    :class:`~repro.compiler.plan_cache.PlanCache`.  Every request is
    parsed, gated and keyed; a warm key then costs a dict probe plus the
    certificate re-check, and N concurrent cold requests for the same
    structure pay for exactly one compilation between them.

``solve_cg`` / ``solve_jacobi``
    Service-driven iterative solves.  Their SpMV compiles through the
    same process-global kernel cache, so the first solve of a structure
    warms every later one, whatever tenant it came from (structures are
    shared; *data* never is — keys contain no values).

Custom kinds can be registered per service instance (see
:meth:`~repro.service.service.CompileSolveService.register`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.kernels import CompileRequest, compile_request
from repro.compiler.plan_cache import PlanCache
from repro.errors import ServiceError
from repro.runtime.schedule_cache import ScheduleCache

__all__ = [
    "ServiceContext",
    "handle_compile",
    "handle_solve_cg",
    "handle_solve_jacobi",
    "BUILTIN_HANDLERS",
]


@dataclass
class ServiceContext:
    """Shared state handed to every handler invocation."""

    plan_cache: PlanCache
    schedule_cache: ScheduleCache | None = None


def handle_compile(payload: dict, ctx: ServiceContext) -> dict:
    """Compile (or fetch) a kernel through the shared plan cache.

    Payload: ``source`` (mini-language text or Program), ``formats``
    (name → Format instance), plus the optional ``compile_kernel``
    knobs ``backend``, ``force_driver``, ``allow_merge``, ``verify``,
    ``extra_key``.
    """
    try:
        source = payload["source"]
        formats = payload["formats"]
    except KeyError as exc:
        raise ServiceError(f"compile request missing {exc.args[0]!r}") from None
    req = CompileRequest(
        source,
        formats,
        backend=payload.get("backend"),
        verify=payload.get("verify", "error"),
        force_driver=payload.get("force_driver"),
        allow_merge=bool(payload.get("allow_merge", True)),
        extra_key=tuple(payload.get("extra_key", ())),
    )
    compile_request(req, ctx.plan_cache)
    return {
        "kernel": req.kernel,
        "outcome": req.outcome,
        "backend": req.kernel.backend,
        "key_fingerprint": req.key_fingerprint,
    }


def handle_solve_cg(payload: dict, ctx: ServiceContext) -> dict:
    """Sequential preconditioned CG: on a matrix Format each iteration is
    one call of the compiled iteration program (SpMV, dots and updates).

    Payload: ``A`` (matrix Format or matvec callable), ``b``, plus the
    optional :func:`repro.solvers.cg.cg` knobs ``diag``, ``tol``,
    ``maxiter``, ``x0``, ``backend``.
    """
    from repro.solvers.cg import cg

    try:
        A, b = payload["A"], payload["b"]
    except KeyError as exc:
        raise ServiceError(f"solve_cg request missing {exc.args[0]!r}") from None
    result = cg(
        A,
        b,
        diag=payload.get("diag"),
        tol=payload.get("tol", 1e-8),
        maxiter=payload.get("maxiter"),
        x0=payload.get("x0"),
        backend=payload.get("backend"),
    )
    return {
        "x": result.x,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": result.final_residual,
    }


def handle_solve_jacobi(payload: dict, ctx: ServiceContext) -> dict:
    """(Weighted) Jacobi solve.

    Payload: ``A``, ``b``, plus optional ``tol``, ``maxiter``, ``omega``,
    ``backend``.
    """
    from repro.solvers.jacobi import jacobi

    try:
        A, b = payload["A"], payload["b"]
    except KeyError as exc:
        raise ServiceError(f"solve_jacobi request missing {exc.args[0]!r}") from None
    x, iterations, residual = jacobi(
        A,
        b,
        tol=payload.get("tol", 1e-8),
        maxiter=payload.get("maxiter", 1000),
        omega=payload.get("omega", 1.0),
        backend=payload.get("backend"),
    )
    return {"x": x, "iterations": iterations, "final_residual": residual}


#: kind → handler for the kinds every service understands out of the box
BUILTIN_HANDLERS = {
    "compile": handle_compile,
    "solve_cg": handle_solve_cg,
    "solve_jacobi": handle_solve_jacobi,
}
