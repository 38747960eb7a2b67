"""Compressed Compressed Column Storage (CCCS) — paper Fig. 1(c).

When a matrix has many empty columns, CCS wastes COLP slots on them; CCCS
adds another level of indirection, the COLIND array, compressing the column
dimension as well.  Hierarchy: a *compressed* column level (only stored
columns are enumerated) above a compressed row level.
"""

from __future__ import annotations

from repro.formats.compressed import Compressed, LevelFormat, Stored

__all__ = ["CCCSMatrix"]


class CCCSMatrix(LevelFormat):
    """Compressed Compressed Column Storage:
    ``CCCSMatrix(shape, colind, colp, rowind, vals)`` with the sorted
    indices of the stored (nonempty) columns, ``len(colind) + 1`` segment
    pointers, and per column sorted row indices and their values."""

    format_name = "CCCS"
    LEVELS = (Stored(1, "colind", "ncols_stored"), Compressed(0, "colp", "rowind"))

    @property
    def ncols_stored(self) -> int:
        return len(self.colind)
