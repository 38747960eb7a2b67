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


def _checked(kind: str, payload: dict, required: tuple, optional: tuple) -> dict:
    """``payload``, once it holds every ``required`` key and no key outside
    ``required + optional``: a misspelt or retired option is an error
    response, never silently dropped."""
    unknown = sorted(set(payload) - {*required, *optional}, key=repr)
    if unknown:
        raise ServiceError(
            f"{kind} request has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"it reads {', '.join(required + optional)}"
        )
    for name in required:
        if name not in payload:
            raise ServiceError(f"{kind} request missing {name!r}")
    return payload


def handle_compile(payload: dict, ctx: ServiceContext) -> dict:
    """Compile (or fetch) a kernel through the shared plan cache.

    Payload: ``source`` (mini-language text or Program), ``formats``
    (name → Format instance), plus the optional ``compile_kernel``
    knobs ``backend``, ``force_driver``, ``allow_merge``, ``extra_key``.
    """
    p = _checked(
        "compile", payload, ("source", "formats"),
        ("backend", "force_driver", "allow_merge", "extra_key"),
    )
    req = CompileRequest(
        p["source"],
        p["formats"],
        backend=p.get("backend"),
        force_driver=p.get("force_driver"),
        allow_merge=bool(p.get("allow_merge", True)),
        extra_key=tuple(p.get("extra_key", ())),
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
    ``maxiter``, ``x0``.
    """
    from repro.solvers.cg import cg

    result = cg(**_checked("solve_cg", payload, ("A", "b"), ("diag", "tol", "maxiter", "x0")))
    return {
        "x": result.x,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": result.final_residual,
    }


def handle_solve_jacobi(payload: dict, ctx: ServiceContext) -> dict:
    """(Weighted) Jacobi solve.

    Payload: ``A``, ``b``, plus the optional :func:`repro.solvers.jacobi.jacobi`
    knobs ``tol``, ``maxiter``, ``omega``.
    """
    from repro.solvers.jacobi import jacobi

    x, iterations, residual = jacobi(
        **_checked("solve_jacobi", payload, ("A", "b"), ("tol", "maxiter", "omega"))
    )
    return {"x": x, "iterations": iterations, "final_residual": residual}


#: kind → handler for the kinds every service understands out of the box
BUILTIN_HANDLERS = {
    "compile": handle_compile,
    "solve_cg": handle_solve_cg,
    "solve_jacobi": handle_solve_jacobi,
}
