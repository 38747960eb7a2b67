"""The access-method protocol: how formats describe themselves to the compiler.

The paper (Sec. 2.1) specifies a storage format through a hierarchy of
index terms, e.g. ``J -> (I, V)`` for CCS: given a column index j one can
access the set of (row, value) pairs of that column.  For each term the
format provides methods to *enumerate* and to *search* the indices at that
level, plus properties (cost, sortedness) the planner uses for join ordering
and join implementation selection.

Here that contract is:

* :class:`Format` — a container (matrix or vector) exposing
  ``levels()``: an ordered tuple of :class:`AccessLevel`, outermost first.
  Walking the levels outer→inner enumerates exactly the stored
  (structurally nonzero) elements, binding matrix axes along the way.
* :class:`AccessLevel` — one level of the hierarchy.  ``binds`` says which
  matrix axes the level assigns when enumerated (possibly none for internal
  levels such as the diagonal-offset level of the Diagonal format, possibly
  two for Coordinate).  Codegen hooks emit Python source through an
  :class:`Emitter`.

Generated code refers to a format's storage through flat names prefixed by
the program-level array name (``A_rowptr``, ``A_vals``, ...); the
``storage(prefix)`` method supplies these bindings at kernel-bind time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import FormatError

__all__ = ["Emitter", "AccessLevel", "Format"]


class Emitter:
    """Accumulates generated Python source with indentation management."""

    def __init__(self, indent: str = "    "):
        self._indent = indent
        self.lines: list[str] = []
        self.depth = 0
        self._counters: dict[str, int] = {}
        self._reserved: set[str] = set()
        #: body of the kernel's ``prepare``, in order: the ``(name, expr)``
        #: bindings made by :meth:`hoist`
        self.hoisted: list[tuple[str, str]] = []

    def emit(self, line: str = "") -> None:
        """Append one line at the current indentation depth."""
        self.lines.append(self._indent * self.depth + line if line else "")

    def open(self, header: str) -> None:
        """Emit a block header (``for ...:`` / ``if ...:``) and indent."""
        self.emit(header)
        self.depth += 1

    def close(self, levels: int = 1) -> None:
        """Dedent by ``levels`` blocks."""
        if self.depth - levels < 0:
            raise FormatError("emitter block underflow")
        self.depth -= levels

    def reserve(self, names) -> None:
        """Mark ``names`` as taken so :meth:`fresh` never returns them.

        Callers pass the kernel's parameter names (storage keys and free
        scalars): a user array named e.g. ``_s0`` would otherwise collide
        with the first ``fresh("s")`` temporary and be clobbered by the
        generated code.
        """
        self._reserved.update(names)

    def fresh(self, base: str) -> str:
        """A new unique variable name derived from ``base``; skips any
        name previously handed out or reserved via :meth:`reserve`."""
        n = self._counters.get(base, 0)
        name = f"_{base}{n}"
        while name in self._reserved:
            n += 1
            name = f"_{base}{n}"
        self._counters[base] = n + 1
        self._reserved.add(name)
        return name

    def hoist(self, base: str, expr: str) -> str:
        """Compute ``expr`` once per ``bind()`` instead of once per call.

        ``expr`` must depend on *structure* only (index arrays, extents,
        earlier hoisted names — never a value array or a loop variable):
        it is evaluated in the generated ``prepare`` and reaches ``run``
        through ``aux`` under the returned name.  Equal expressions are
        emitted once and share one name."""
        for name, code in self.hoisted:
            if code == expr:
                return name
        name = self.fresh(base)
        self.hoisted.append((name, expr))
        return name

    def search(self, lo: str, hi: str, keys) -> str:
        """Emit a binary search of the positions ``lo:hi`` for the one
        whose stored indices equal the keys; a miss ``continue``s.  Each
        of ``keys`` is ``(template, key)``: the template names the stored
        index at position ``{}``, and the positions are sorted by these
        indices, lexicographically.  Returns the position variable."""
        p, e, m = self.fresh("p"), self.fresh("e"), self.fresh("m")
        keys, below = list(keys), ""
        for n, (t, k) in enumerate(keys):  # a key that is no plain name is computed once
            if not k.isidentifier():
                keys[n] = (t, self.fresh("k"))
                self.emit(f"{keys[n][1]} = {k}")
        for t, k in reversed(keys):
            at = t.format(m)
            below = f"{at} < {k} or {at} == {k} and ({below})" if below else f"{at} < {k}"
        self.emit(f"{p} = {lo}")
        self.emit(f"{e} = {hi}")
        self.open(f"while {p} < {e}:")
        self.emit(f"{m} = ({p} + {e}) >> 1")
        self.open(f"if {below}:")
        self.emit(f"{p} = {m} + 1")
        self.close()
        self.open("else:")
        self.emit(f"{e} = {m}")
        self.close(2)
        self.open(f"if {p} == {hi} or " + " or ".join(f"{t.format(p)} != {k}" for t, k in keys) + ":")
        self.emit("continue")
        self.close()
        return p

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class AccessLevel:
    """One level in a format's index hierarchy.

    Attributes
    ----------
    binds:
        Tuple of matrix axes (0 = row, 1 = column) whose index variables
        become bound when this level is enumerated.  Empty for internal
        levels (e.g. a diagonal-offset loop).
    enumerable:
        Enumeration is supported (``emit_enumerate``).  All levels here
        are enumerable; the flag exists for completeness of the property
        vocabulary.
    searchable:
        ``emit_search`` is supported: given already-bound axis expressions,
        locate the position (or skip the iteration).
    sorted_enum:
        Enumeration yields the bound axis indices in increasing order —
        the property that enables merge joins.
    dense:
        Enumeration covers every index in ``[0, extent)`` of the bound
        axis (no sparsity at this level).
    search_cost:
        Relative cost of one search (1.0 ≈ an O(1) array lookup).
    """

    binds: tuple[int, ...] = ()
    enumerable: bool = True
    searchable: bool = False
    sorted_enum: bool = True
    dense: bool = False
    search_cost: float = 1.0
    #: the level supports a two-pointer merge against a sorted enumeration
    #: of its axis (``emit_merge``) — the planner's third join implementation
    mergeable: bool = False

    def avg_fanout(self) -> float:
        """Expected number of entries enumerated under one parent position
        (used by the planner's cost model)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # codegen hooks.  ``axis_vars`` maps matrix axis -> loop variable name;
    # the hook must emit assignments for every axis in ``binds``.
    # ``parent_pos`` is the position expression from the enclosing level
    # (``None`` at the outermost level).  Returns this level's position
    # expression, to be passed down / used for the value load.
    # ------------------------------------------------------------------
    def emit_enumerate(
        self, g: Emitter, prefix: str, parent_pos: str | None, axis_vars: Mapping[int, str]
    ) -> str:
        """Open loop(s) enumerating this level; bind axis variables."""
        raise NotImplementedError

    def emit_search(
        self, g: Emitter, prefix: str, parent_pos: str | None, axis_exprs: Mapping[int, str]
    ) -> str:
        """Emit code locating the position for bound axis values.

        On a miss the emitted code must ``continue`` (the planner only
        places searches inside an enclosing loop).  Returns the position
        expression on a hit.
        """
        raise FormatError(f"{type(self).__name__} is not searchable")

    def emit_merge(
        self, g: Emitter, prefix: str, parent_pos: str | None, key_expr: str, cursor: str
    ) -> str:
        """Two-pointer merge step: advance ``cursor`` to the first stored
        index >= ``key_expr``; ``break`` when exhausted (the enclosing
        enumeration is sorted, so nothing further can match) and
        ``continue`` on a mismatch.  Returns the position expression.
        The caller initializes ``cursor`` to 0 before the sorted loop.
        """
        raise FormatError(f"{type(self).__name__} does not support merge joins")


class Format:
    """Base class for all storage formats (matrices and vectors).

    Concrete formats must provide:

    * ``shape`` — tuple of extents (len 2 for matrices, 1 for vectors),
    * ``nnz`` — number of stored entries,
    * ``levels()`` — the access hierarchy (outermost first),
    * ``storage(prefix)`` — dict of numpy arrays and scalars to bind into
      the generated kernel's namespace (nothing callable: a search is code
      the level emits, through :meth:`Emitter.search`),
    * ``emit_load(g, prefix, axis_vars, pos)`` — expression for the stored
      value at ``pos`` (with all axes bound),
    * ``from_coo(coo)`` / ``to_coo()`` — conversion through the exchange
      format.

    Writable formats (dense) also provide ``emit_store`` /
    ``emit_accumulate``.
    """

    #: subclasses override
    writable: bool = False
    #: True for formats that store every element (NZ(A(...)) ≡ TRUE);
    #: the sparsity analysis drops NZ literals on structurally dense arrays.
    structurally_dense: bool = False
    #: human-readable format name (defaults to the class name)
    format_name: str = ""
    #: suffixes of the ``storage()`` keys holding *values*; every other key
    #: is structure, which a bound kernel assumes fixed (see ``bind()``)
    value_keys: tuple[str, ...] = ("vals",)

    @property
    def shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def nnz(self) -> int:
        raise NotImplementedError

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def levels(self) -> tuple[AccessLevel, ...]:
        raise NotImplementedError

    def storage(self, prefix: str) -> dict[str, object]:
        raise NotImplementedError

    def emit_load(self, g: Emitter, prefix: str, axis_vars: Mapping[int, str], pos: str) -> str:
        raise NotImplementedError

    def emit_load_vec(self, prefix: str, axis_exprs: Sequence[str]) -> str:
        """Vectorized load: index each axis by an expression that may be a
        slice or an index array.  Only meaningful for structurally dense
        formats (``block-gemv`` gathers them)."""
        return f"{prefix}_vals[{', '.join(axis_exprs)}]"

    def emit_store(self, g: Emitter, prefix: str, axis_vars: Mapping[int, str], pos: str, value_expr: str) -> None:
        raise FormatError(f"{type(self).__name__} is not writable")

    def emit_accumulate(self, g: Emitter, prefix: str, axis_vars: Mapping[int, str], pos: str, value_expr: str, op: str = "+") -> None:
        """Combine ``value_expr`` into the target element with ``op``
        (one of :data:`~repro.compiler.ast_nodes.REDUCTION_OPS`)."""
        raise FormatError(f"{type(self).__name__} is not writable")

    def inner_block_view(self, prefix: str):
        """Dense-block vectorization view of the whole format, or None.

        For formats whose final (row, column) levels form a dense block
        under each position of the levels above (i-nodes, clique blocks,
        dense windows) large enough for BLAS, the code generator collapses
        the nest into one batched GEMV per block *shape*; the view describes
        all blocks at once, as expressions over the format's storage::

            {"nrows": expr, "ncols": expr,   # per-block extents (arrays)
             "rows": (start_expr, index_expr | None),
             "cols": (start_expr, index_expr | None),
             "voff": expr,                   # per-block offset into vals
             "vals": expr}                   # the flat value array

        Block ``t`` covers rows ``start[t] + arange(nrows[t])``, looked up
        through the index array when one is given (likewise columns); its
        values are row-major at ``vals[voff[t] : voff[t] + nrows[t]*ncols[t]]``.
        Everything but ``vals`` must be structure.
        """
        return None

    def validate(self) -> None:
        """Raise :class:`FormatError` unless the index arrays describe a
        valid structure (bounds, segment order).  The constructor calls it,
        and so does a ``bind()`` that runs some unit as Python: the C tier
        range-checks inline, a Python run would not."""

    # ------------------------------------------------------------------
    # conversions / utilities
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo) -> "Format":
        raise NotImplementedError

    def to_coo(self):
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Densify (for tests and small examples)."""
        return self.to_coo().to_dense()

    @property
    def name(self) -> str:
        return self.format_name or type(self).__name__

    def spec(self) -> tuple:
        """Hashable structural description of this container for plan/kernel
        cache keys: everything about the format that affects the *generated
        code* (class identity, wrapped formats, which axes are translated)
        but nothing about the data values or extents.  Two instances with
        equal specs must be interchangeable at kernel-bind time — the same
        compiled source runs correctly against either.  Composite formats
        (wrappers around another :class:`Format`) must include the wrapped
        format's spec; the default covers self-contained formats.
        """
        return (type(self).__qualname__,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"


def check_shape(shape: Sequence[int], ndim: int) -> tuple[int, ...]:
    """Validate and normalize a shape tuple."""
    t = tuple(int(s) for s in shape)
    if len(t) != ndim:
        raise FormatError(f"expected {ndim}-D shape, got {t}")
    if any(s < 0 for s in t):
        raise FormatError(f"negative extent in shape {t}")
    return t


#: the largest value an int32 index array may hold (:func:`index_width`)
NARROW_MAX = 2**31 - 1


def index_width(extents, stored: int) -> type:
    """The dtype of a format's index arrays: int32 when every value they
    may hold fits — an index below each of ``extents``, a position up to
    ``stored``, and the sum of two positions that a binary search's
    midpoint forms (the Python tier adds them as int32) — else int64."""
    largest = max([e - 1 for e in extents] + [2 * stored])
    return np.int32 if largest <= NARROW_MAX else np.int64


def index_array(values, dtype=np.int64, error: type[Exception] = FormatError) -> np.ndarray:
    """``values`` as a C-contiguous index array of ``dtype`` (int32 or
    int64), raising ``error`` where the conversion would change a value —
    a fraction, NaN or inf, or one outside ``dtype``'s range — instead of
    truncating or wrapping it."""
    arr = np.asarray(values)
    if np.can_cast(arr.dtype, dtype):  # int32 to int64, say: no value can change
        return np.ascontiguousarray(arr, dtype=dtype)
    try:
        with np.errstate(invalid="ignore"):
            out = np.ascontiguousarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise error(f"index values must be integers, got dtype {arr.dtype}") from None
    if not np.array_equal(out, arr):
        raise error(f"index values must be integers that fit {out.dtype}, got {arr[out != arr][:3].tolist()}")
    return out


def is_permutation(perm: np.ndarray) -> bool:
    """Whether the integer array ``perm`` holds each of ``0 .. len(perm) - 1``
    exactly once."""
    n = len(perm)
    return not n or (perm.min() >= 0 and perm.max() < n and (np.bincount(perm) == 1).all())


def check_segments(ptr: np.ndarray, idx: np.ndarray, extent: int, name: str) -> None:
    """Raise :class:`FormatError` unless the pointers ``ptr`` (from 0 to
    ``len(idx)``) never decrease and every segment ``ptr[k]:ptr[k+1]`` of
    ``idx`` holds strictly increasing indices in ``[0, extent)`` — what a
    sorted, searchable compressed level claims about its arrays."""
    if np.any(np.diff(ptr) < 0):
        raise FormatError(f"segment pointers of {name} must be non-decreasing")
    if len(idx) and (idx.min() < 0 or idx.max() >= extent):
        raise FormatError(f"{name} holds an index outside [0, {extent})")
    step = np.diff(idx)
    step[ptr[(ptr > 0) & (ptr < len(idx))] - 1] = 1  # a step into the next segment
    if np.any(step <= 0):
        raise FormatError(f"{name} must be strictly increasing within each segment")
