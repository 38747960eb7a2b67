"""Executor backends: named, registered lowering policies for plans.

A backend decides *how* each planned statement (a
:class:`~repro.compiler.codegen.KernelUnit`) becomes executable code:

* ``"interpreted"`` — the scalar backend: nested Python loops that follow
  the plan's steps literally.  This is the semantic reference path and the
  universal fallback; it can lower every legal plan.
* ``"vectorized"`` — the numpy backend: per plan it picks the strongest
  applicable lowering strategy, judged purely from the access-method
  properties the formats expose (``segmented_view``, ``inner_block_view``,
  ``inner_vector_view``).  Plans none of its strategies can lower fall
  back to the interpreted nest **inside the same kernel** — the fallback
  is per statement, is recorded in a traced ``codegen.fallback`` span and
  a ``compiler.fallbacks`` counter, and never raises.

Backends are registered by name so callers select them with a string
(``compile_kernel(..., backend="vectorized")``) and extensions can add
their own via :func:`register_backend` without compiler changes — the
same open-world contract the formats enjoy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.compiler import codegen
from repro.errors import CompileError
from repro.observability import metrics as _metrics
from repro.observability.trace import span

__all__ = [
    "LoweringStrategy",
    "ExecutorBackend",
    "INTERPRETED",
    "VECTORIZED",
    "register_backend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class LoweringStrategy:
    """One way of turning a planned statement into code.

    ``applies(unit, formats)`` inspects the plan shape and the formats'
    access-method properties; ``emit(g, program, unit, formats)`` writes
    the code.  ``applies`` must be side-effect free: the backend probes
    strategies in declaration order and uses the first match.
    """

    name: str
    applies: Callable[[codegen.KernelUnit, Mapping], bool]
    emit: Callable[[object, object, codegen.KernelUnit, Mapping], None]


@dataclass(frozen=True)
class ExecutorBackend:
    """A named, ordered collection of lowering strategies.

    ``universal`` marks backends whose strategy list covers every legal
    plan (the interpreted backend).  Non-universal backends fall back to
    the interpreted scalar nest for plans they cannot lower.
    """

    name: str
    strategies: tuple[LoweringStrategy, ...]
    universal: bool = False
    description: str = ""

    def select(self, unit: codegen.KernelUnit, formats: Mapping) -> LoweringStrategy | None:
        """First strategy whose ``applies`` accepts this unit, or None."""
        for strat in self.strategies:
            if strat.applies(unit, formats):
                return strat
        return None

    def lower_unit(self, g, program, unit: codegen.KernelUnit, formats: Mapping) -> str:
        """Emit code for one unit; returns the lowering label used.

        Plans no strategy covers are lowered through the interpreted
        scalar nest under a traced ``codegen.fallback`` span — graceful
        degradation, never an error.
        """
        strat = self.select(unit, formats)
        if strat is not None:
            strat.emit(g, program, unit, formats)
            return strat.name
        with span(
            "codegen.fallback",
            backend=self.name,
            driver=unit.plan.driver,
            steps=[repr(s) for s in unit.plan.steps],
            reason="no strategy of this backend lowers the plan",
        ):
            codegen._emit_scalar_nest(g, program, unit, formats)
        _metrics.record("compiler.fallbacks", backend=self.name)
        return "fallback:scalar"


#: The interpreted reference path: scalar loops for everything.
INTERPRETED = ExecutorBackend(
    name="interpreted",
    strategies=(
        LoweringStrategy("scalar", lambda unit, formats: True, codegen._emit_scalar_nest),
    ),
    universal=True,
    description="nested Python loops following the plan exactly",
)

#: The numpy backend: strongest applicable strategy per plan, probed in
#: order of how much of the nest each one collapses.
VECTORIZED = ExecutorBackend(
    name="vectorized",
    strategies=(
        LoweringStrategy(
            "segmented", codegen._segmented_vectorizable, codegen._emit_segmented_nest
        ),
        LoweringStrategy(
            "block-gemv", codegen._block_vectorizable, codegen._emit_block_nest
        ),
        LoweringStrategy(
            "vectorized", codegen._vectorizable, codegen._emit_vector_nest
        ),
        LoweringStrategy(
            "reduce-scatter",
            codegen._reduction_scatter_applies,
            codegen._emit_vector_nest,
        ),
    ),
    description="numpy slice/gather/segmented-reduction lowering with "
    "per-statement fallback to the interpreted nest",
)


_BACKENDS: dict[str, ExecutorBackend] = {}


def register_backend(backend: ExecutorBackend, aliases: tuple[str, ...] = ()) -> ExecutorBackend:
    """Register a backend under its name (plus ``aliases``)."""
    for key in (backend.name, *aliases):
        _BACKENDS[key] = backend
    return backend


register_backend(INTERPRETED)
register_backend(VECTORIZED, aliases=("auto",))


def available_backends() -> tuple[str, ...]:
    """Registered backend names (aliases included), sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: str | ExecutorBackend | None = None) -> ExecutorBackend:
    """Resolve a backend name (``None``: ``"vectorized"``), or pass an
    instance through."""
    if isinstance(backend, ExecutorBackend):
        return backend
    try:
        return _BACKENDS["vectorized" if backend is None else backend]
    except KeyError:
        raise CompileError(
            f"unknown executor backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None

