"""Compressed Column Storage (CCS) — the running example of paper Fig. 1(b).

Hierarchy: ``J -> (I, V)`` — a dense column level above a compressed row
level.  Column j's row indices live in ``ROWIND[COLP[j] : COLP[j+1]]`` and
its values in ``VALS`` at the same positions, exactly the paper's arrays.
"""

from __future__ import annotations

from repro.formats.compressed import Compressed, DenseAxis, LevelFormat

__all__ = ["CCSMatrix"]


class CCSMatrix(LevelFormat):
    """Compressed Column Storage, with the paper's array names:
    ``CCSMatrix(shape, colp, rowind, vals)`` (COLP, ROWIND, VALS)."""

    format_name = "CCS"
    LEVELS = (DenseAxis(1), Compressed(0, "colp", "rowind"))
