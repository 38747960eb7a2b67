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
        #: body of the kernel's ``prepare``, in order: ``(name, expr)``
        #: bindings and ``(None, statement)`` checks made by :meth:`hoist`
        self.hoisted: list[tuple[str | None, str]] = []

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

    def hoist(self, base: str | None, expr: str) -> str | None:
        """Compute ``expr`` once per ``bind()`` instead of once per call.

        ``expr`` must depend on *structure* only (index arrays, extents,
        earlier hoisted names — never a value array or a loop variable):
        it is evaluated in the generated ``prepare`` and reaches ``run``
        through ``aux`` under the returned name.  With ``base=None``,
        ``expr`` is a whole statement (a range check) and nothing is bound.
        Equal expressions are emitted once and share one name, scratch
        buffers included — units run one after another, so a nest must not
        hoist the same scratch expression twice."""
        for name, code in self.hoisted:
            if code == expr:
                return name
        name = self.fresh(base) if base else None
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

    # Vectorization hook: if the level can expose the entries under one
    # parent position as numpy slices, return a dict
    #   {"slice": (start_expr, stop_expr),
    #    "index": {axis: ("gather", template) | ("affine", start_expr)
    #                     | ("prefix", array_expr)}}
    # where a "gather" template contains {s}/{e} placeholders for the slice
    # bounds and evaluates to the index array, "affine" means the axis
    # index runs ``start, start+1, ...`` over the slice (contiguous access),
    # and "prefix" means it runs ``array[0], array[1], ...`` — the first
    # ``e - s`` entries of a duplicate-free index array, whatever ``s`` is.
    # Return None if the level cannot be vectorized.
    def vector_view(self, prefix: str, parent_pos: str | None):
        return None


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
        formats (the vectorizing backends gather them)."""
        return f"{prefix}_vals[{', '.join(axis_exprs)}]"

    def emit_store(self, g: Emitter, prefix: str, axis_vars: Mapping[int, str], pos: str, value_expr: str) -> None:
        raise FormatError(f"{type(self).__name__} is not writable")

    def emit_accumulate(self, g: Emitter, prefix: str, axis_vars: Mapping[int, str], pos: str, value_expr: str, op: str = "+") -> None:
        """Combine ``value_expr`` into the target element with ``op``
        (one of :data:`~repro.compiler.ast_nodes.REDUCTION_OPS`)."""
        raise FormatError(f"{type(self).__name__} is not writable")

    def segmented_view(self, prefix: str):
        """Whole-matrix vectorization view for two-level formats, or None.

        Enables the code generator's *segmented-reduction* pass (the
        numpy analogue of what a vectorizing C backend does for
        pointer-and-index formats): the entire loop nest collapses into a
        flat product over all stored entries followed by one segmented
        reduction.  Two kinds:

        * ``{"kind": "segments", "segments": ptr_expr, "index": {axis:
          gather_expr}, "vals": vals_expr, "outer_axis": axis}`` — entries
          of outer index q live in ``vals[ptr[q]:ptr[q+1]]``
          (CRS rows); reduction via ``np.add.reduceat``,
        * ``{"kind": "dense2d", ...}`` — entries in padded 2-D arrays
          (ITPACK), zero padding; reduction via ``.sum(axis=1)``.
        """
        return None

    def inner_block_view(self, prefix: str):
        """Dense-block vectorization view of the whole format, or None.

        For formats whose final (row, column) levels form a small dense
        block under each position of the levels above (i-nodes, clique
        blocks, dense windows), the code generator collapses the nest
        into one batched GEMV per block *shape*.  The view describes all
        blocks at once, as expressions over the format's storage::

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

    def inner_vector_view(self, prefix: str, parent_pos: str | None):
        """Vectorization view of the innermost level, or None.

        Returns the innermost level's ``vector_view`` augmented with a
        ``"vals"`` template ({s}/{e} placeholders) that evaluates to the
        value array over the slice.  Formats whose values do not live in a
        flat ``{prefix}_vals`` array override this.
        """
        view = self.levels()[-1].vector_view(prefix, parent_pos)
        if view is None:
            return None
        view.setdefault("vals", f"{prefix}_vals[{{s}}:{{e}}]")
        return view

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


def index_array(values, error: type[Exception] = FormatError) -> np.ndarray:
    """``values`` as int64, raising ``error`` where the conversion would
    change a value (a fraction, NaN or inf) instead of truncating it."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            out = arr.astype(np.int64)
    except (TypeError, ValueError):
        raise error(f"index values must be integers, got dtype {arr.dtype}") from None
    if not np.array_equal(out, arr):
        raise error(f"index values must be integers, got {arr[out != arr][:3].tolist()}")
    return out


def is_permutation(perm: np.ndarray) -> bool:
    """Whether int64 ``perm`` holds each of ``0 .. len(perm) - 1`` exactly once."""
    n = len(perm)
    return not n or (perm.min() >= 0 and perm.max() < n and (np.bincount(perm) == 1).all())
