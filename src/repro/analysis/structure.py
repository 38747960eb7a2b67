"""Sparsity-structure analysis: the quantities the auto-planner prices.

Table 1 of the paper shows no single format wins everywhere — the winner
is determined by the matrix's actual structure (bands for ``gr_30_30``,
i-node blocks for ``bcsstm27``, row-length skew for ``memplus``).  This
module turns that observation into a compiler input: one scan of a
:class:`~repro.formats.coo.COOMatrix` produces a serializable
:class:`StructureProfile` holding exactly what the α+β cost model of
:mod:`repro.compiler.autoplan` reads to price each candidate format:

* **row lengths** — the longest row and the slots an ITPACK layout would
  allocate (the memplus skew signature shows up as padding),
* **diagonals** — distinct occupied diagonals and their run storage (what
  :class:`~repro.formats.diagonal.DiagonalMatrix` would allocate),
* **dense diagonal blocks** — the finest contiguous partition such that
  every stored entry falls inside a diagonal block (the
  :class:`~repro.formats.blockdiag.BlockDiagonalMatrix` partition), found
  by an interval sweep over per-row/column reach,
* **i-nodes** — identical-row-pattern groups via
  :func:`repro.graphs.inodes.find_inodes` (the ``bcsstm27`` FEM
  signature exploited by :class:`~repro.formats.inode.InodeMatrix`).

Its :meth:`~StructureProfile.fingerprint` joins the auto-planned kernel's
cache key, so structurally different matrices never share a cached
auto-planned kernel.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.errors import ReproError
from repro.fingerprint import fingerprint as _digest
from repro.formats.coo import COOMatrix
from repro.graphs.inodes import find_inodes

__all__ = ["StructureProfile", "analyze_structure"]

#: profile schema version; part of the fingerprint so analyzer upgrades
#: never reuse stale cached kernels keyed on an older feature set
PROFILE_VERSION = 2


@dataclass(frozen=True)
class StructureProfile:
    """The priced structure of one sparse matrix.

    All fields are plain Python ints/tuples so the profile serializes
    losslessly through :meth:`to_dict`/:meth:`from_dict` (the bench table
    embeds it as JSON).
    """

    nrows: int
    ncols: int
    nnz: int
    row_max: int
    ell_stored: int  # nrows * row_max: the ITPACK allocation
    ndiags: int  # distinct occupied diagonals
    diag_stored: int  # DiagonalMatrix run storage (incl. interior fill)
    nblocks: int  # 0 when not square / empty
    block_stored: int  # sum of block widths squared
    blockptr: tuple[int, ...]  # the partition itself
    ninodes: int  # identical-pattern row groups (nonempty rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["version"] = PROFILE_VERSION
        return d

    @classmethod
    def from_dict(cls, doc) -> "StructureProfile":
        """Inverse of :meth:`to_dict`; any other schema is a ReproError."""
        names = [f.name for f in fields(cls)]
        if (
            not isinstance(doc, dict)
            or doc.get("version") != PROFILE_VERSION
            or set(doc) != {*names, "version"}
        ):
            raise ReproError(
                f"not a version-{PROFILE_VERSION} structure profile "
                f"(keys {names} + 'version')"
            )
        return cls(**dict({k: doc[k] for k in names}, blockptr=tuple(doc["blockptr"])))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StructureProfile":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Short stable hash of the profile for plan-cache keys.

        Hashes every field (blockptr included — two matrices with
        different block partitions need different BlockDiag code paths),
        so structurally different matrices of equal shape get distinct
        auto-plan cache entries.
        """
        return _digest(json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")))

    def describe(self) -> str:
        """The priced quantities, one line per storage model."""
        return "\n".join(
            [
                f"structure profile: {self.nrows}x{self.ncols}, nnz={self.nnz}",
                f"  rows: max {self.row_max} (ITPACK storage {self.ell_stored})",
                f"  diagonals: {self.ndiags} occupied, run storage {self.diag_stored}",
                f"  diagonal blocks: {self.nblocks}, storage {self.block_stored}",
                f"  i-nodes: {self.ninodes} groups",
            ]
        )


# ----------------------------------------------------------------------
# feature extraction
# ----------------------------------------------------------------------
def _diagonal_features(coo: COOMatrix) -> tuple[int, int]:
    """(ndiags, diag_stored)."""
    if coo.nnz == 0:
        return 0, 0
    d = coo.col - coo.row
    offsets, inverse = np.unique(d, return_inverse=True)
    lo = np.full(len(offsets), np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(len(offsets), np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(lo, inverse, coo.row)
    np.maximum.at(hi, inverse, coo.row)
    return len(offsets), int(np.sum(hi - lo + 1))


def _block_partition(coo: COOMatrix) -> tuple[int, ...]:
    """The finest contiguous diagonal-block partition covering every entry.

    Interval sweep: index ``i`` reaches the furthest row/column any entry
    of row or column ``i`` touches; a block closes at every index whose
    running reach does not extend past itself.  Every stored entry
    provably lands inside a diagonal block of the returned partition, so
    a BlockDiagonalMatrix built on it loses nothing.
    """
    n = coo.shape[0]
    if n == 0 or coo.shape[0] != coo.shape[1]:
        return ()
    reach = np.arange(n, dtype=np.int64)
    if coo.nnz:
        np.maximum.at(reach, coo.row, coo.col)
        np.maximum.at(reach, coo.col, coo.row)
    closes = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n))
    return (0, *(closes + 1).tolist())


def _inode_features(coo: COOMatrix) -> int:
    """Identical-pattern groups over the nonempty rows of a canonical ``coo``."""
    if coo.nnz == 0:
        return 0
    starts = np.flatnonzero(np.r_[True, coo.row[1:] != coo.row[:-1]])
    gptr, _ = find_inodes(np.append(starts, coo.nnz), coo.col)
    return len(gptr) - 1


def analyze_structure(coo: COOMatrix) -> StructureProfile:
    """Scan a matrix once and return its :class:`StructureProfile`.

    Accepts any :class:`~repro.formats.base.Format` by converting through
    the COO exchange format; the scan is numpy work over the entries,
    with no Python loop per row.
    """
    from repro.observability import metrics as _metrics
    from repro.observability.trace import span

    if not isinstance(coo, COOMatrix):
        to_coo = getattr(coo, "to_coo", None)
        if to_coo is None:
            raise ReproError(
                f"analyze_structure needs a matrix, got {type(coo).__name__}"
            )
        coo = to_coo()
    if coo.ndim != 2:
        raise ReproError("analyze_structure expects a 2-D matrix")
    coo = coo.canonicalized()
    with span("autoplan.analyze", shape=coo.shape, nnz=coo.nnz):
        n, m = coo.shape
        row_max = int(coo.row_counts().max()) if n else 0
        ndiags, diag_stored = _diagonal_features(coo)
        blockptr = _block_partition(coo)
        widths = np.diff(blockptr) if len(blockptr) > 1 else np.zeros(0, dtype=np.int64)
        profile = StructureProfile(
            nrows=int(n),
            ncols=int(m),
            nnz=int(coo.nnz),
            row_max=row_max,
            ell_stored=int(n * row_max),
            ndiags=ndiags,
            diag_stored=diag_stored,
            nblocks=max(0, len(blockptr) - 1),
            block_stored=int(np.sum(widths * widths)),
            blockptr=blockptr,
            ninodes=_inode_features(coo),
        )
    _metrics.record("runtime.autoplan.analyses")
    return profile
