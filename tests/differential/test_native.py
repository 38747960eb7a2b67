"""The native tier (``repro.compiler.native``): the scalar nest printed as C.

native ≡ interpreted **bitwise** on random float values (the C nest does
the interpreted nest's arithmetic in the same order), a corrupt index
array is a ``FormatError`` and never a crash, a missing compiler leaves
the same nest on Python (counted), and the toolchain builds and loads one
nest once — across threads and across processes.
"""

import itertools
import json
import os
import runpy
import subprocess
import sys
import threading
import types
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import codegen, compile_kernel, native
from repro.compiler.specialize import plan_hybrid
from repro.errors import FormatError
from repro.formats import FORMAT_NAMES, COOMatrix, DenseVector, base
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


@needs_cc
@pytest.mark.parametrize("fmt", ["CRS", "JDiag", "ITPACK"])
def test_one_kernel_builds_one_library_per_index_width(fmt, monkeypatch):
    rng = _rng(f"native/width/{fmt}")
    fm, _, out = _operands("spmv", fmt, rng)
    with monkeypatch.context() as m:
        m.setattr(base, "NARROW_MAX", -1)
        wide = FORMAT_NAMES[fmt].from_coo(fm["A"].to_coo())
    kern = compile_kernel(KERNELS["spmv"], fm)
    assert compile_kernel(KERNELS["spmv"], {**fm, "A": wide}) is kern  # the width is not in the key
    narrow_fm, wide_fm = _clone(fm), {**_clone(fm), "A": wide}
    kern(**narrow_fm)
    narrow_state = kern.native
    kern(**wide_fm)
    assert narrow_state.reason is None and kern.native.reason is None
    assert narrow_state.fingerprint != kern.native.fingerprint
    assert narrow_fm[out].vals.tobytes() == wide_fm[out].vals.tobytes()


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


@needs_cc
def test_a_corrupt_segment_pointer_under_a_search_is_a_format_error():
    rng = _rng("corrupt-search")
    A = _matrix("CRS", rng)
    fm = {"A": A, "Z": DenseVector(rng.standard_normal(23)), "Y": DenseVector(rng.standard_normal(23))}
    kern = compile_kernel("for i in 0:n { Y[i] += A[i,i] * Z[i] }", fm, cache=False)
    kern.bind(**fm)
    assert kern.native.reason is None
    A.rowptr[2] = 10**6  # the binary searches of rows 1 and 2 probe past colind
    with pytest.raises(FormatError, match="native run"):
        kern.bind(**fm)


def test_the_midpoint_shift_translates_for_integers_only():
    c_source, _ = native.translate("def run(P, V, aux):\n    m = (P[0] + P[1]) >> 1\n    V[0] = V[m]\n", ("i1", "f1"))
    assert " >> 1)" in c_source
    with pytest.raises(native.Declined, match="types"):
        native.translate("def run(V, aux):\n    V[0] = V[0] >> 1\n", ("f1",))


def test_integer_min_max_translate_and_mixed_kinds_decline():
    c_source, _ = native.translate("def run(P, V, aux):\n    m = min(P[0], P[1])\n    V[0] = V[max(m, 0)]\n", ("i1", "f1"))
    assert "mini_(" in c_source and "maxi_(" in c_source
    with pytest.raises(native.Declined, match="types"):
        native.translate("def run(P, V, aux):\n    V[0] = min(P[0], V[1])\n", ("i1", "f1"))


@needs_cc
def test_the_banded_example_runs_as_c_bitwise():
    """``examples/custom_format.py``'s band loops bound ``j`` by integer
    ``min``/``max``: the nest runs as C and equals the Python run."""
    banded = runpy.run_path(str(Path(__file__).resolve().parents[2] / "examples" / "custom_format.py"))["BandedMatrix"]
    rng = _rng("banded")
    A = banded.from_coo(COOMatrix.from_dense(np.triu(np.tril(rng.standard_normal((23, 23)), 2), -1)))
    ys = []
    for backend in ("vectorized", "interpreted"):
        fm = {"A": A, "X": DenseVector(np.arange(23.0)), "Y": DenseVector.zeros(23)}
        kern = compile_kernel(KERNELS["spmv"], fm, backend=backend, cache=False)
        kern(**fm)
        assert (kern.native.reason is None) == (backend == "vectorized"), kern.native
        ys.append(fm["Y"].vals.tobytes())
    assert ys[0] == ys[1]


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


@needs_cc
@pytest.mark.parametrize("decline", ["no-compiler", "build-failed"])
def test_a_toolchain_decline_is_not_remembered(decline, monkeypatch):
    """A missing compiler or a failed build belongs to the toolchain, not
    to the operands or the source: the kernel's next bind tries C again,
    and once the toolchain is back it runs C, bitwise equal to Python."""
    src, y = _never_seen_spmv()
    rng = _rng(f"toolchain-back/{decline}")
    fm, _, _ = _operands("spmv", "CRS", rng)
    fm[y] = fm.pop("Y")
    python_runs, c_run = [_clone(fm), _clone(fm)], _clone(fm)
    kern = compile_kernel(src, fm, cache=False)

    def build_fails(*_):
        raise native.Declined("build-failed")

    with monkeypatch.context() as mp:
        if decline == "no-compiler":
            mp.setattr(native, "find_compiler", lambda: None)
        else:
            mp.setattr(native, "_shared_object", build_fails)
        for got in python_runs:  # each bind counts its decline once
            with metrics.scoped() as registry:
                kern.bind(**got)()
                assert registry.snapshot()[f"compiler.native.declined{{reason={decline}}}"] == 1
            assert kern.native.reason == decline
    kern.bind(**c_run)()
    assert kern.native.reason is None, kern.native
    for got in python_runs:
        assert got[y].vals.tobytes() == c_run[y].vals.tobytes()


def _counting_define(monkeypatch) -> list:
    """Patch ``codegen.define`` to record the source of every call."""
    define, defined = codegen.define, []
    monkeypatch.setattr(codegen, "define", lambda source: defined.append(source) or define(source))
    return defined


@needs_cc
@pytest.mark.parametrize("tier", ["interpreted", "no-compiler"])
def test_the_python_tier_defines_its_pair_once_at_its_first_bind(tier, monkeypatch):
    """Compiling defines nothing; the first of two binds defines the
    kernel's pair and the second reuses it; the bits are the C tier's."""
    rng = _rng(f"lazy-pair/{tier}")
    fm, _, _ = _operands("spmv", "CRS", rng)
    c_tier = _clone(fm)
    c_kern = compile_kernel(KERNELS["spmv"], fm, cache=False)
    c_kern(**c_tier)
    assert c_kern.native.reason is None, c_kern.native
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    defined = _counting_define(monkeypatch)
    kern = compile_kernel(KERNELS["spmv"], fm, cache=False, backend="interpreted" if tier == "interpreted" else None)
    assert defined == []
    runs = [_clone(fm), _clone(fm)]
    for got in runs:
        kern.bind(**got)()
    assert defined == [kern.source] and kern.native.reason == tier
    for got in runs:
        assert got["Y"].vals.tobytes() == c_tier["Y"].vals.tobytes()


def test_two_threads_binding_a_python_kernel_first_at_once_agree():
    rng = _rng("lazy-pair/threads")
    fm, _, _ = _operands("spmv", "CRS", rng)
    kern = compile_kernel(KERNELS["spmv"], fm, cache=False, backend="interpreted")
    start, outs, errors = threading.Barrier(2), [None, None], []

    def bind(t):
        try:
            mine = _clone(fm)
            start.wait()
            kern.bind(**mine)()
            outs[t] = mine["Y"].vals
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=bind, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors and outs[0] is not None and outs[0].tobytes() == outs[1].tobytes()
    want = _clone(fm)
    numpy_run(kern, **want)
    assert outs[0].tobytes() == want["Y"].vals.tobytes()


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
    tiers = [u.reason for u in kernel.native.units]
    assert "block-gemv" in tiers and None in tiers
    assert tiers == ["block-gemv" if lb == "block-gemv" else None for lb in kernel.unit_backends]
    want = coo.to_dense() @ formats["X"].vals
    assert np.allclose(formats["Y"].vals, want, rtol=1e-12, atol=1e-12)


@needs_cc
def test_a_hybrid_kernel_defines_only_the_runs_it_keeps_on_python(monkeypatch):
    """Its ``block-gemv`` units run their own print's pair beside the C
    units, so the whole kernel's pair is defined only when no unit runs C;
    both tiers are right, and bitwise alike."""
    rng = _rng("hybrid/lazy")
    n = 96
    coo = STRUCTURE_CLASSES["hybrid"](rng, n)
    x = rng.standard_normal(n)
    defined = _counting_define(monkeypatch)

    def run():
        kernel, formats = plan_hybrid(coo).compile(cache=False)
        formats["X"] = DenseVector(x.copy())
        kernel(**formats)
        assert np.allclose(formats["Y"].vals, coo.to_dense() @ x, rtol=1e-12, atol=1e-12)
        return kernel, formats["Y"].vals

    kernel, y = run()
    assert {u.reason for u in kernel.native.units} == {None, "block-gemv"}
    assert defined and kernel.source not in defined
    defined.clear()
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    kernel, y_python = run()
    assert {u.reason for u in kernel.native.units} == {"no-compiler", "block-gemv"}
    assert defined == [kernel.source]
    assert y_python.tobytes() == y.tobytes()


def test_the_aliasing_sweep_declines_exactly_what_every_pair_overlapping_would():
    """Against the pairwise rule on random views of one buffer (empty ones
    included): an output declines when its bytes overlap any other
    operand's; inputs may overlap each other."""
    rng = _rng("alias/sweep")
    buf = np.zeros(64)
    for _ in range(500):
        cuts = [sorted(rng.integers(0, 65, 2)) for _ in range(rng.integers(1, 7))]
        args = [buf[lo:hi] for lo, hi in cuts] + [1.5]
        outputs = tuple(int(i) for i in np.flatnonzero(rng.random(len(cuts)) < 0.3))
        spans = [(a.ctypes.data, a.ctypes.data + a.nbytes) for a in args[:-1]]
        want = any(j != i and s[0] < spans[i][1] and spans[i][0] < s[1] for i in outputs for j, s in enumerate(spans))
        kern = types.SimpleNamespace(_outputs=outputs)
        try:
            native._operands(kern, args)
            got = False
        except native.Declined as exc:
            got = exc.args == ("aliasing",)
        assert got == want, (cuts, outputs)
