"""Format-contract auditor: real formats verify, mislabeled ones are caught."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    audit_format,
    audit_registered_formats,
    default_probes,
)
from repro.formats import FORMAT_NAMES
from repro.formats.compressed import CompressedLevel
from repro.formats.crs import CRSMatrix
from repro.formats.jdiag import JaggedDiagonalMatrix
from repro.formats.sparse_vector import SparseVector


def codes(report):
    return sorted({d.code for d in report.errors()})


# ----------------------------------------------------------------------
# the registered formats all hold their contracts
# ----------------------------------------------------------------------
def test_all_registered_formats_audit_clean():
    report = audit_registered_formats()
    assert report.ok, report.render("error")
    # one clean/skip info per registered format
    assert len(report.by_code("BER028")) >= len(FORMAT_NAMES)


def test_single_format_audit_is_clean(paper_matrix):
    fmt = CRSMatrix.from_coo(paper_matrix)
    assert audit_format(fmt).ok


def test_vector_formats_audit_clean():
    vec = SparseVector.from_dense(np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
    assert audit_format(vec, name="X").ok


# ----------------------------------------------------------------------
# seeded defects
# ----------------------------------------------------------------------
def _with_level_override(cls, level_index, **overrides):
    """Subclass ``cls`` replacing one level's claimed properties."""

    class Doctored(cls):
        def levels(self):
            base = list(super().levels())
            lied = base[level_index].__class__.__new__(
                base[level_index].__class__
            )
            lied.__dict__.update(base[level_index].__dict__)
            for k, v in overrides.items():
                setattr(lied, k, v)
            base[level_index] = lied
            return tuple(base)

    return Doctored


def test_mislabeled_sorted_level_is_caught(paper_matrix):
    # JDiag's run level really enumerates in jagged-diagonal order; a
    # format that *claims* sorted_enum=True there must be caught — the
    # planner would otherwise ride merge joins on an unsorted stream
    Lying = _with_level_override(JaggedDiagonalMatrix, 1, sorted_enum=True)
    rep = audit_format(Lying.from_coo(default_probes()[0]))
    assert "BER023" in codes(rep)


def test_false_dense_claim_is_caught(paper_matrix):
    Lying = _with_level_override(CRSMatrix, 1, dense=True)
    rep = audit_format(Lying.from_coo(paper_matrix))
    assert "BER026" in codes(rep)


def test_corrupt_values_disagree_with_to_dense(paper_matrix):
    fmt = CRSMatrix.from_coo(paper_matrix)

    class Corrupt(CRSMatrix):
        def to_dense(self):
            d = super().to_dense()
            d[d != 0] += 1.0
            return d

    bad = Corrupt(fmt.shape, fmt.rowptr, fmt.colind, fmt.vals)
    rep = audit_format(bad)
    assert "BER027" in codes(rep)


def test_broken_search_is_caught(paper_matrix):
    fmt = CRSMatrix.from_coo(paper_matrix)

    class OffByOne(CompressedLevel):
        def emit_search(self, g, prefix, parent_pos, axis_exprs):
            # searches the next column: misses every stored column's true position
            return super().emit_search(g, prefix, parent_pos, {1: f"{axis_exprs[1]} + 1"})

    class BrokenSearch(CRSMatrix):
        def levels(self):
            rows, cols = super().levels()
            return rows, OffByOne(1, "rowptr", "colind", cols.avg_fanout())

    bad = BrokenSearch(fmt.shape, fmt.rowptr, fmt.colind, fmt.vals)
    rep = audit_format(bad)
    assert "BER025" in codes(rep)


def test_binds_not_covering_axes_is_caught(paper_matrix):
    Lying = _with_level_override(CRSMatrix, 1, binds=())
    rep = audit_format(Lying.from_coo(paper_matrix))
    assert "BER020" in codes(rep)


def test_unscoped_storage_key_is_caught(paper_matrix):
    fmt = CRSMatrix.from_coo(paper_matrix)

    class Unscoped(CRSMatrix):
        def storage(self, prefix):
            d = super().storage(prefix)
            d["global_scratch"] = np.zeros(1)
            return d

    bad = Unscoped(fmt.shape, fmt.rowptr, fmt.colind, fmt.vals)
    rep = audit_format(bad)
    assert "BER022" in codes(rep)


def test_duplicate_entries_are_caught():
    from repro.formats.coo import COOMatrix

    # bypass canonicalization: the same coordinate stored twice
    dup = COOMatrix(
        (3, 3),
        np.array([0, 0, 1]),
        np.array([1, 1, 2]),
        np.array([1.0, 2.0, 3.0]),
    )
    rep = audit_format(dup)
    assert "BER024" in codes(rep)


def test_composite_format_is_skipped_not_failed():
    from repro.formats.blocksolve import BlockSolveMatrix
    from repro.matrices import fem_matrix

    bs = BlockSolveMatrix.from_coo(fem_matrix(points=8, dof=1, rng=0))
    rep = audit_format(bs)
    assert rep.ok
    assert [d.code for d in rep.infos()] == ["BER028"]


def test_unknown_format_name_raises():
    from repro.errors import FormatError

    with pytest.raises(FormatError, match="unknown format"):
        audit_registered_formats(names=["NotAFormat"])
