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

#: case -> (profile fingerprint, Inode arrays digest, BS95 arrays digest).
#: The profile column was re-pinned on purpose for profile schema v2 (only
#: the priced fields are hashed); each value equals the v2 hash of the
#: fields the v1 analyzer computed for the same matrix.
GOLDEN = {
    "banded/0": ("503990fa7a8007dd", "57576bd2e67d3801", "6371d66194f7f9d5"),
    "banded/1": ("01782bbbd6739536", "013dada599e1e1e1", "2cd2ec0389ca7f44"),
    "banded/2": ("adeab2686a88d513", "6f24744353a7dded", "e6616d7806a0b549"),
    "block_diag/0": ("7e8a41ef9c1deb5f", "a59ebdb1594d4a3c", "5f14880cbe1291d5"),
    "block_diag/1": ("e377a090db9b627a", "c68d257949820039", "6ac8c40e4015108e"),
    "block_diag/2": ("ff4de5b93ac4a2f0", "79252c8d5810dac1", "b65dfee2b812979f"),
    "diagonal/0": ("c0a44a6feca144de", "b356aed7ae45f046", "d76026af5358b0ee"),
    "diagonal/1": ("84cc60005fbf60d8", "0fa54eaeef11f0cd", "f1562b9445d164c0"),
    "diagonal/2": ("39fbe155c2e9254a", "85cc0d3abe5e9fed", "098ba92bbc74258d"),
    "hybrid/0": ("bd76329bc3674f50", "9b9500db53a564ba", "7f9c00e464759a97"),
    "hybrid/1": ("436dfa7497134a17", "fe0bf6807385830b", "190fe9443c56f4a0"),
    "hybrid/2": ("01b6f489ce02b790", "3c1e576ee69a4ca8", "004bfe497c669377"),
    "hybrid_blocks/0": ("4671b2408803c731", "de283a82e1473a5f", "83395846345bc9f8"),
    "hybrid_blocks/1": ("be0252557109c0d9", "c476764aeb70ffa7", "d3a5849dab33bf08"),
    "hybrid_blocks/2": ("331913e52650fbe8", "2451b72453646c58", "96f9aa55bf8eafe9"),
    "inode/0": ("44f79e702d6785a0", "f8cd8c0212a4efeb", "7b1c26c8e18890e3"),
    "inode/1": ("f7cb1d738a0c307f", "e3a8a66626c459ba", "1d04e2997113ed2b"),
    "inode/2": ("06928e7bde8db389", "60b26ce7b395177f", "812cae0f63cb4317"),
    "near_banded/0": ("f6e85e11c05f60f3", "5ee7e8cbec013bcd", "df8550a0af20b2d8"),
    "near_banded/1": ("c995efcea6a6bb46", "9e588e30ae135b65", "986f24bdb388458d"),
    "near_banded/2": ("8f09ad7e59cc0158", "2ce809e3a43072e5", "82934c0125762c1a"),
    "near_block_diag/0": ("8a1bee648509d738", "9866db96a063a702", "f92997b2648d2e4c"),
    "near_block_diag/1": ("1cbf7e9a5e3cddbd", "95d0215aa53ab3c1", "4abd92bc004f1622"),
    "near_block_diag/2": ("caf83f118aec07a7", "54c82ec75ebb6f85", "33c66165252950e6"),
    "power_law/0": ("d57aa44d52a65b60", "a41eb689544852cd", "d0fd821dfa05fe9b"),
    "power_law/1": ("7c3c44454233bcff", "6e7c157dd260bf81", "cf9f68224a429058"),
    "power_law/2": ("4231ac40b18635d4", "268519fd9d7006ea", "bf5ab512388ec5f6"),
    "symmetric/0": ("191895906482e466", "d04521b5fc19c982", "5c3626638e15e95f"),
    "symmetric/1": ("2c4dd1c2170fa944", "2c56883189182dfc", "de7ee1287921ac55"),
    "symmetric/2": ("2c369e404bb813a4", "0c0c7ba8086e45e7", "f0392e995f88c6e9"),
    "uniform/0": ("6c8202742bcc1f15", "a0a32b5df438b1f8", "38cba1b6d1a9cf96"),
    "uniform/1": ("465a484a44f9ba51", "2f6329421f3006dc", "31b4cb3aa2cb166f"),
    "uniform/2": ("5a55c8b80ef43fc0", "fc9aee8727f3df98", "816119355f5c311e"),
    "stencil3d(16, 3)": ("744c8a0c8f62a691", "09abe4cc171645a8", "0bd4c7e1a5bbeab9"),
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
