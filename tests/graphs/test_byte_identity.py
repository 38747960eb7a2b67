"""Byte-identity goldens: the structure fingerprint, the InodeMatrix
arrays and the BlockSolve95 arrays of every generator class (three seeds)
and of the ``spmd_cg`` benchmark matrix, pinned from the row-tuple
grouping that the array grouping replaced."""

import hashlib

import numpy as np
import pytest

from repro import BlockSolveMatrix, InodeMatrix
from repro.analysis.structure import analyze_structure
from repro.matrices import stencil_matrix
from tests.generators import STRUCTURE_CLASSES

#: case -> (profile fingerprint, Inode arrays digest, BS95 arrays digest)
GOLDEN = {
    "banded/0": ("6f9aa045f7cf885c", "57576bd2e67d3801", "6371d66194f7f9d5"),
    "banded/1": ("5359633741f7770f", "013dada599e1e1e1", "2cd2ec0389ca7f44"),
    "banded/2": ("0a8ac3cac46003cb", "6f24744353a7dded", "e6616d7806a0b549"),
    "block_diag/0": ("3b52cdb66138bb8b", "a59ebdb1594d4a3c", "5f14880cbe1291d5"),
    "block_diag/1": ("3f339fc1c511bb46", "c68d257949820039", "6ac8c40e4015108e"),
    "block_diag/2": ("7f357de17e4d4321", "79252c8d5810dac1", "b65dfee2b812979f"),
    "diagonal/0": ("d361d362988bc50f", "b356aed7ae45f046", "d76026af5358b0ee"),
    "diagonal/1": ("cf8134dd9bf65d38", "0fa54eaeef11f0cd", "f1562b9445d164c0"),
    "diagonal/2": ("012303e147a9a956", "85cc0d3abe5e9fed", "098ba92bbc74258d"),
    "hybrid/0": ("9f95d7fc3e248564", "9b9500db53a564ba", "7f9c00e464759a97"),
    "hybrid/1": ("e02d86c2171e8cb7", "fe0bf6807385830b", "190fe9443c56f4a0"),
    "hybrid/2": ("300ab3d1f18f084d", "3c1e576ee69a4ca8", "004bfe497c669377"),
    "hybrid_blocks/0": ("3bcec4168d6c9bda", "de283a82e1473a5f", "83395846345bc9f8"),
    "hybrid_blocks/1": ("a5425127e40c0578", "c476764aeb70ffa7", "d3a5849dab33bf08"),
    "hybrid_blocks/2": ("12356fa7d5b6be92", "2451b72453646c58", "96f9aa55bf8eafe9"),
    "inode/0": ("136f9e375025a29c", "f8cd8c0212a4efeb", "7b1c26c8e18890e3"),
    "inode/1": ("4bd024959f558d1f", "e3a8a66626c459ba", "1d04e2997113ed2b"),
    "inode/2": ("78f6ef56962ddb4f", "60b26ce7b395177f", "812cae0f63cb4317"),
    "near_banded/0": ("c08292cb93dc68f6", "5ee7e8cbec013bcd", "df8550a0af20b2d8"),
    "near_banded/1": ("ff6f206d12cfedd0", "9e588e30ae135b65", "986f24bdb388458d"),
    "near_banded/2": ("92bc6ba5d033734b", "2ce809e3a43072e5", "82934c0125762c1a"),
    "near_block_diag/0": ("3f4838438a82407a", "9866db96a063a702", "f92997b2648d2e4c"),
    "near_block_diag/1": ("ef12b5643ff770df", "95d0215aa53ab3c1", "4abd92bc004f1622"),
    "near_block_diag/2": ("5d0e94fadd08f64f", "54c82ec75ebb6f85", "33c66165252950e6"),
    "power_law/0": ("b4aa87ee9f9719ba", "a41eb689544852cd", "d0fd821dfa05fe9b"),
    "power_law/1": ("8ef7eb5432625983", "6e7c157dd260bf81", "cf9f68224a429058"),
    "power_law/2": ("6c28995aa3d0cb94", "268519fd9d7006ea", "bf5ab512388ec5f6"),
    "symmetric/0": ("d45b2b2b0a815c66", "d04521b5fc19c982", "5c3626638e15e95f"),
    "symmetric/1": ("739b3acabd1a30c1", "2c56883189182dfc", "de7ee1287921ac55"),
    "symmetric/2": ("04871d2c13aff902", "0c0c7ba8086e45e7", "f0392e995f88c6e9"),
    "uniform/0": ("68055d0d3b6e4f73", "a0a32b5df438b1f8", "38cba1b6d1a9cf96"),
    "uniform/1": ("cd6499cc23b4ceda", "2f6329421f3006dc", "31b4cb3aa2cb166f"),
    "uniform/2": ("8957f50f38022769", "fc9aee8727f3df98", "816119355f5c311e"),
    "stencil3d(16, 3)": ("cf08b6b24aa05e92", "09abe4cc171645a8", "0bd4c7e1a5bbeab9"),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def matrix(case: str):
    if case == "stencil3d(16, 3)":  # the spmd_cg pattern
        return stencil_matrix((16, 16, 16), dof=3, rng=0)
    name, seed = case.split("/")
    return STRUCTURE_CLASSES[name](np.random.default_rng([int(seed), 35]), (40, 64, 97)[int(seed)])


def test_every_generator_class_is_pinned():
    assert {c.split("/")[0] for c in GOLDEN} == set(STRUCTURE_CLASSES) | {"stencil3d(16, 3)"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_byte_identical_to_the_pinned_build(case):
    m = matrix(case)
    ino = InodeMatrix.from_coo(m)
    bs = BlockSolveMatrix.from_coo(m)
    d, o = bs.dense_blocks, bs.offdiag
    assert (
        analyze_structure(m).fingerprint(),
        digest(ino.rows, ino.inodeptr, ino.cols, ino.colptr, ino.vals, ino.voff),
        digest(
            bs.perm.perm, bs.clique_ptr, bs.colors, d.blockptr, d.vals, d.voff,
            o.rows, o.inodeptr, o.cols, o.colptr, o.vals, o.voff,
        ),
    ) == GOLDEN[case]
