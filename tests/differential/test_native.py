"""The native tier (``repro.compiler.native``): the scalar nest printed as C.

native ≡ interpreted **bitwise** on random float values (the C nest does
the interpreted nest's arithmetic in the same order), a corrupt index
array is a ``FormatError`` and never a crash, a missing compiler leaves
today's numpy path (counted), and the toolchain builds and loads one
nest once — across threads and across processes.
"""

import itertools
import json
import os
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.compiler import compile_kernel, native
from repro.compiler.specialize import plan_hybrid
from repro.errors import FormatError
from repro.formats import FORMAT_NAMES, COOMatrix, DenseVector
from repro.memo import Memo
from repro.observability import metrics
from tests.conftest import case_rng
from tests.differential.test_prepare_run import numpy_run
from tests.generators import STRUCTURE_CLASSES, gen_power_law

needs_cc = pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")

KERNELS = {
    "spmv": "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }",
    "spmv_t": "for i in 0:n { for j in 0:m { Y[j] += A[i,j] * X[i] } }",
    "axpy": "for i in 0:n { Y[i] += alpha * X[i] }",
    "dot": "for z in 0:1 { for i in 0:n { S[z] += X[i] * Y[i] } }",
}
FORMATS = ["CRS", "CCS", "CCCS", "Coordinate", "JDiag", "ITPACK", "Diagonal", "Dense"]
CASES = [(k, f) for k in ("spmv", "spmv_t") for f in FORMATS] + [("axpy", "-"), ("dot", "-")]
_fresh = itertools.count()


def _rng(tag: str):
    return case_rng(zlib.crc32(tag.encode()))


def _matrix(fmt, rng, n=23):
    """A power-law matrix in ``fmt`` with random (non-integer) values."""
    coo = gen_power_law(rng, n)
    return FORMAT_NAMES[fmt].from_coo(
        COOMatrix(coo.shape, coo.row, coo.col, rng.standard_normal(coo.nnz), canonical=True)
    )


def _operands(kernel, fmt, rng, n=23):
    """(formats, scalars, output name) with random float values."""
    x, y = DenseVector(rng.standard_normal(n)), DenseVector(rng.standard_normal(n))
    if kernel == "axpy":
        return {"X": x, "Y": y}, {"alpha": float(rng.standard_normal())}, "Y"
    if kernel == "dot":
        return {"X": x, "Y": y, "S": DenseVector(np.zeros(1))}, {}, "S"
    return {"A": _matrix(fmt, rng, n), "X": x, "Y": y}, {}, "Y"


def _clone(fm):
    return {k: f if k == "A" else DenseVector(f.vals.copy()) for k, f in fm.items()}


@needs_cc
@pytest.mark.parametrize("kernel,fmt", CASES)
def test_native_is_interpreted_bitwise_on_random_floats(kernel, fmt):
    rng = _rng(f"native/{kernel}/{fmt}")
    fm, scalars, out = _operands(kernel, fmt, rng)
    kern = compile_kernel(KERNELS[kernel], fm)
    oracle = compile_kernel(KERNELS[kernel], fm, backend="interpreted")

    def agree():
        bound_fm, unbound_fm, oracle_fm = _clone(fm), _clone(fm), _clone(fm)
        bound = kern.bind(**bound_fm, **scalars)
        assert kern.native.reason is None, kern.native
        bound()
        kern(**unbound_fm, **scalars)
        oracle(**oracle_fm, **scalars)
        assert oracle.native.reason == "interpreted"
        assert bound_fm[out].vals.tobytes() == oracle_fm[out].vals.tobytes()
        assert unbound_fm[out].vals.tobytes() == oracle_fm[out].vals.tobytes()
        return bound, bound_fm

    bound, bound_fm = agree()
    # a bound call follows an in-place edit of the values it was bound to
    edited = bound_fm.get("A", bound_fm["X"])
    for key in edited.value_keys:
        vals = edited.storage("V")[f"V_{key}"]
        vals[...] = rng.standard_normal(vals.shape)
    before = bound_fm[out].vals.copy()
    bound()
    fresh = _clone(bound_fm)
    fresh[out].vals[...] = before
    oracle(**fresh, **scalars)
    assert bound_fm[out].vals.tobytes() == fresh[out].vals.tobytes()
    agree()


#: (format, index array) -> the attribute holding it
CORRUPT = [
    ("CRS", "rowptr"), ("CRS", "colind"), ("Coordinate", "row"), ("Coordinate", "col"),
    ("JDiag", "perm"), ("JDiag", "jdptr"), ("JDiag", "jdcol"), ("ITPACK", "rowlen"),
    ("Diagonal", "dptr"), ("Diagonal", "first"),
]


@needs_cc
@pytest.mark.parametrize("bad", ["out-of-range", "negative"])
@pytest.mark.parametrize("fmt,index", CORRUPT)
def test_corrupt_index_array_is_a_format_error(fmt, index, bad):
    rng = _rng(f"corrupt/{fmt}/{index}")
    fm, _, _ = _operands("spmv", fmt, rng)
    A = fm["A"]
    kern = compile_kernel(KERNELS["spmv"], fm)
    bound = kern.bind(**fm)
    assert kern.native.reason is None
    arr = getattr(A, index)
    arr[1] = -5 if bad == "negative" else 10**6
    with pytest.raises(FormatError, match="native run"):
        bound()  # the bound C run checks inline
    with pytest.raises(FormatError, match="native run"):
        kern.bind(**fm)  # the check twin, before anything is written
    with pytest.raises(FormatError, match="native run"):
        kern(**fm)


def test_no_compiler_keeps_the_numpy_path(monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    rng = _rng("no-compiler")
    fm, _, _ = _operands("spmv", "CRS", rng)
    want = _clone(fm)
    kern = compile_kernel(KERNELS["spmv"], fm, cache=False)
    with metrics.scoped() as registry:
        kern(**fm)
        snap = registry.snapshot()
    assert kern.native.reason == "no-compiler"
    assert snap["compiler.native.declined{reason=no-compiler}"] == 1
    assert "compiler.native.builds" not in snap
    numpy_run(kern, **want)
    assert fm["Y"].vals.tobytes() == want["Y"].vals.tobytes()


def _never_seen_spmv():
    """SpMV over array names nothing else uses: a C source no cache holds."""
    y = f"Ynat{os.getpid()}x{next(_fresh)}"
    return f"for i in 0:n {{ for j in 0:m {{ {y}[i] += A[i,j] * X[j] }} }}", y


@needs_cc
def test_sixteen_threads_build_and_load_once(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    src, y = _never_seen_spmv()
    rng = _rng("threads")
    fm, _, _ = _operands("spmv", "CRS", rng)
    fm[y] = fm.pop("Y")
    kern = compile_kernel(src, fm, cache=False)
    start = threading.Barrier(16)
    outs, errors = [None] * 16, []

    def bind(t):
        try:
            mine = {**fm, y: DenseVector(fm[y].vals.copy())}
            start.wait()
            kern.bind(**mine)()
            outs[t] = mine[y].vals
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with metrics.scoped() as registry:
            threads = [threading.Thread(target=bind, args=(t,)) for t in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            snap = registry.snapshot()
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert snap["compiler.native.builds"] == 1 and snap["compiler.native.loads"] == 1
    assert all(o.tobytes() == outs[0].tobytes() for o in outs)
    assert len(list(tmp_path.glob("repro/native/*.so"))) == 1


@needs_cc
@pytest.mark.parametrize("fault", ["gcc-fails", "cache-unwritable"])
def test_toolchain_faults_never_break_bind(fault, tmp_path, monkeypatch):
    """A failing compiler declines (counted) and keeps numpy; a cache
    location that cannot be created falls back to a private directory."""
    if fault == "gcc-fails":
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    src, y = _never_seen_spmv()
    fm, _, _ = _operands("spmv", "CRS", _rng(f"toolchain/{fault}"))
    fm[y] = fm.pop("Y")
    want = _clone(fm)
    kern = compile_kernel(src, fm, cache=False)
    kern(**fm)
    if fault == "gcc-fails":
        assert kern.native.reason == "build-failed"
        numpy_run(kern, **want)
        assert fm[y].vals.tobytes() == want[y].vals.tobytes()
    else:
        assert kern.native.reason is None and kern.native.origin == "gcc"


@needs_cc
def test_a_cache_directory_others_can_write_is_never_loaded_from(tmp_path, monkeypatch):
    """Another user could plant ``<fingerprint>.so`` in a group- or
    world-writable cache directory: such a directory is not used."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    src, y = _never_seen_spmv()
    fm, _, _ = _operands("spmv", "CRS", _rng("world-writable"))
    fm[y] = fm.pop("Y")
    kern = compile_kernel(src, fm, cache=False)
    kern(**fm)
    shared = tmp_path / "repro" / "native"
    assert kern.native.origin == "gcc" and (shared / f"{kern.native.fingerprint}.so").exists()
    shared.chmod(0o777)
    assert native.cache_dir() == native._private_dir()
    monkeypatch.setattr(native, "_LIBRARIES", Memo("compiler.native", 8))
    again = compile_kernel(src, fm, cache=False)
    again(**fm)
    assert again.native.origin == "gcc"  # built afresh, not the "disk" copy in `shared`


CHILD = """
import json, sys
import numpy as np
from repro import COOMatrix, CRSMatrix, DenseVector, compile_kernel
from repro.observability import metrics
y = sys.argv[1]
src = "for i in 0:n { for j in 0:m { %s[i] += A[i,j] * X[j] } }" % y
A = CRSMatrix.from_coo(COOMatrix.random(40, 40, 0.2, rng=1))
fm = {"A": A, "X": DenseVector(np.ones(40)), y: DenseVector.zeros(40)}
with metrics.scoped() as registry:
    kern = compile_kernel(src, fm)
    kern(**fm)
    snap = registry.snapshot()
print(json.dumps([kern.native.origin, snap.get("compiler.native.builds", 0), snap.get("compiler.native.loads", 0)]))
"""


@needs_cc
def test_a_second_process_hits_the_disk_cache(tmp_path):
    _, y = _never_seen_spmv()
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": os.path.abspath(src_dir)}

    def child():
        out = subprocess.run(
            [sys.executable, "-c", CHILD, y], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    assert child() == ["gcc", 1, 1]
    assert child() == ["disk", 0, 1]


@needs_cc
def test_hybrid_block_gemv_regions_stay_numpy_the_others_go_native():
    rng = _rng("hybrid")
    n = 96
    coo = STRUCTURE_CLASSES["hybrid"](rng, n)
    kernel, formats = plan_hybrid(coo).compile()
    formats["X"] = DenseVector(rng.standard_normal(n))
    kernel(**formats)
    blocks = [k for k in kernel.kernels if "block-gemv" in k.unit_backends]
    others = [k for k in kernel.kernels if k not in blocks]
    assert blocks and others
    assert all(k.native.reason == "block-gemv" for k in blocks)
    assert all(k.native.reason is None for k in others)
    want = coo.to_dense() @ formats["X"].vals
    assert np.allclose(formats["Y"].vals, want, rtol=1e-12, atol=1e-12)
