"""I-node detection: rows with identical column structure (paper Fig. 2(c)).

Stiffness matrices from multi-component finite-element models have groups
of rows with *identical* column patterns — one group per discretization
point, of size equal to the number of degrees of freedom.  Gathering each
group's values into a small dense matrix reduces index storage (one column
list serves the whole group) and turns SpMV inner loops into dense GEMV.

Grouping is one array pass: each row's (position, column) pairs hash to 64
bits, rows sort by (length, hash), and every entry of every row is checked
against the first row of its group.  A hash collision only ever splits a
group: the rows that differ from their group's first row are regrouped
among themselves with a fresh salt.
"""

from __future__ import annotations

import numpy as np

__all__ = ["find_inodes", "leader_groups"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _row_hash(ptr: np.ndarray, idx: np.ndarray, pos: np.ndarray, salt: int) -> np.ndarray:
    """64-bit hash of each row's (position, column) pairs: the splitmix64
    finalizer of each pair, summed per row (an empty row hashes to 0)."""
    salt_key = np.uint64((salt + 1) * int(_MIX1) % 2**64)
    z = (idx.view(np.uint64) * _GOLDEN + pos.view(np.uint64)) ^ salt_key
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    h = np.zeros(len(ptr) - 1, dtype=np.uint64)
    nonempty = ptr[1:] > ptr[:-1]
    if len(z):
        h[nonempty] = np.add.reduceat(z, ptr[:-1][nonempty])
    return h


def _leaders(ptr: np.ndarray, idx: np.ndarray, salt: int = 0) -> np.ndarray:
    """For every row, the smallest row with an identical column list."""
    n = len(ptr) - 1
    width = np.diff(ptr)
    row = np.repeat(np.arange(n), width)
    pos = np.arange(len(idx)) - ptr[row]
    h = _row_hash(ptr, idx, pos, salt)
    order = np.lexsort((h, width))  # stable: rows ascend within a tie
    w, h = width[order], h[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (w[1:] != w[:-1]) | (h[1:] != h[:-1])
    lead = np.empty(n, dtype=np.int64)
    lead[order] = order[first][np.cumsum(first) - 1]
    # exact check: entry k of a row against entry k of its leader
    bad = np.flatnonzero(np.bincount(row[idx != idx[ptr[lead][row] + pos]], minlength=n))
    if len(bad):  # a collision: regroup those rows among themselves
        sub_ptr = np.concatenate(([0], np.cumsum(width[bad])))
        sub_idx = idx[np.repeat(ptr[bad] - sub_ptr[:-1], width[bad]) + np.arange(sub_ptr[-1])]
        lead[bad] = bad[_leaders(sub_ptr, sub_idx, salt + 1)]
    return lead


def leader_groups(lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partition naming v's group by its smallest member ``lead[v]``,
    as ``(gptr, members)``: group g is ``members[gptr[g]:gptr[g+1]]``,
    groups ordered by smallest member, members ascending."""
    members = np.argsort(lead, kind="stable")
    s = lead[members]
    return np.append(np.flatnonzero(np.diff(s, prepend=-1)), len(s)), members


def find_inodes(ptr, idx) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of the CSR pattern ``(ptr, idx)`` whose column lists
    are identical, as :func:`leader_groups`; the empty rows form a group."""
    return leader_groups(_leaders(np.asarray(ptr, dtype=np.int64), np.asarray(idx, dtype=np.int64)))
