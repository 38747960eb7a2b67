"""The inspector/executor split, differentially.

Every emitted kernel is ``prepare(structure) -> aux`` plus
``run(storage, aux)``.  Over the format x kernel grid: the bound call, the
unbound call and the interpreted backend agree **bitwise** (integer-valued
inputs make every summation order exact), a bound callable follows value
mutations of its matrix, and a bad gather index is caught at ``bind()`` on
every tier: C, Python without a compiler, and the interpreted backend.
The edges the native run forces are pinned for both paths: a read-only
output is a ``FormatError`` at ``bind()``; an aliased output, a float32 or
a strided operand keeps the Python path.
"""

import zlib

import numpy as np
import pytest

from repro.compiler import clear_kernel_cache, compile_kernel, native
from repro.errors import FormatError
from repro.formats import FORMAT_NAMES, COOMatrix, DenseMatrix, DenseVector
from tests.conftest import case_rng
from tests.generators import gen_power_law, gen_uniform, integer_vector

COMPILED = [n for n in FORMAT_NAMES if n != "BS95"]

KERNELS = {
    "spmv": "for i in 0:n { for j in 0:m { Y[i] += A[i,j] * X[j] } }",
    "spmv_t": "for i in 0:n { for j in 0:m { Y[j] += A[i,j] * X[i] } }",
    "rowscaled": "for i in 0:n { for j in 0:m { Y[i] += D[i] * A[i,j] * X[j] } }",
    "spmm": "for i in 0:n { for j in 0:m { for k in 0:l { C[i,k] += A[i,j] * B[j,k] } } }",
    "entrywise": "for i in 0:n { for j in 0:m { C[i,j] += A[i,j] * B[i,j] } }",
    "rowmin": "for i in 0:n { for j in 0:m { M[i] = min(M[i], A[i,j]) } }",
    "colmax": "for i in 0:n { for j in 0:m { M[j] = max(M[j], A[i,j]) } }",
}


def _rng(tag: str):
    return case_rng(zlib.crc32(tag.encode()))


def _operands(kernel, A, rng):
    """Fresh integer-valued operands; returns (formats, output name)."""
    n = A.shape[0]
    vec = lambda: DenseVector(integer_vector(rng, n))  # noqa: E731
    if kernel in ("spmv", "spmv_t"):
        return {"A": A, "X": vec(), "Y": vec()}, "Y"
    if kernel == "rowscaled":
        return {"A": A, "X": vec(), "D": vec(), "Y": vec()}, "Y"
    if kernel == "spmm":
        B = rng.integers(-4, 5, (n, 3)).astype(float)
        return {"A": A, "B": DenseMatrix(B), "C": DenseMatrix.zeros(n, 3)}, "C"
    if kernel == "entrywise":
        B = rng.integers(-4, 5, (n, n)).astype(float)
        return {"A": A, "B": DenseMatrix(B), "C": DenseMatrix.zeros(n, n)}, "C"
    return {"A": A, "M": vec()}, "M"


def _clone(fm):
    """The same matrix with private copies of the dense operands."""
    return {
        name: f if name == "A" else type(f)(f.vals.copy()) for name, f in fm.items()
    }


def numpy_run(kern, **bindings):
    """The generated Python pair, ``run(..., prepare(...))``, on these
    bindings — the path a kernel takes when the native tier declines."""
    ns = kern._build_namespace(bindings)
    prepare, run, prepare_names = kern.python_pair
    run(*[ns[k] for k in kern.param_names], prepare(*[ns[k] for k in prepare_names]))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fmt", COMPILED)
def test_bound_unbound_interpreted_bitwise(fmt, kernel):
    rng = _rng(f"prepare-run/{fmt}/{kernel}")
    gen = gen_power_law if kernel != "entrywise" else gen_uniform
    A = FORMAT_NAMES[fmt].from_coo(gen(rng, 17))
    fm, out = _operands(kernel, A, rng)
    kern = compile_kernel(KERNELS[kernel], fm)
    oracle = compile_kernel(KERNELS[kernel], fm, backend="interpreted")

    def three_ways():
        bound_fm, unbound_fm, oracle_fm = _clone(fm), _clone(fm), _clone(fm)
        bound = kern.bind(**bound_fm)
        bound()
        kern(**unbound_fm)
        oracle(**oracle_fm)
        assert np.array_equal(bound_fm[out].vals, unbound_fm[out].vals), kern.source
        assert np.array_equal(bound_fm[out].vals, oracle_fm[out].vals), kern.source
        return bound, bound_fm

    bound, bound_fm = three_ways()
    # values may change between bound calls, structure may not: the bound
    # callable must follow an in-place edit of A's values, and be bitwise
    # what a fresh unbound call and the oracle compute on the edited matrix
    for key in A.value_keys:
        A.storage("A")[f"A_{key}"][...] *= 2.0
    before = bound_fm[out].vals.copy()
    bound()
    fresh = _clone(fm)
    fresh[out].vals[...] = before
    kern(**fresh)
    assert np.array_equal(bound_fm[out].vals, fresh[out].vals), kern.source
    three_ways()


@pytest.mark.parametrize("fmt", COMPILED)
@pytest.mark.parametrize("backend", ["vectorized", "interpreted"])
def test_entrywise_matches_dense_reference(fmt, backend):
    """C[i,j] += A[i,j] * B[i,j]: two co-varying axes must address entry
    *pairs*, not a k x k block per diagonal run."""
    rng = _rng(f"entrywise/{fmt}")
    coo = gen_uniform(rng, 13)
    A = FORMAT_NAMES[fmt].from_coo(coo)
    fm, _ = _operands("entrywise", A, rng)
    compile_kernel(KERNELS["entrywise"], fm, backend=backend)(**fm)
    assert np.array_equal(fm["C"].vals, coo.to_dense() * fm["B"].vals)


@pytest.mark.parametrize("bound", [True, False])
@pytest.mark.parametrize("seed", [1997, 3])
def test_entrywise_diagonal_vectorized_at_benchmark_scale(seed, bound):
    """``benchmarks/pipeline/compile_mix.py::EXCLUDED`` leaves this triple
    out as wrong at the commit that benchmark was written against.  It is
    exact at that scale (n = 200, ~6 entries per row, real values): pinned
    here so the benchmark can re-admit it."""
    n = 200
    coo = COOMatrix.random(n, n, 6 / n, rng=seed, symmetric=True)
    E = np.random.default_rng(seed).standard_normal((n, n))
    fm = {
        "A": FORMAT_NAMES["Diagonal"].from_coo(coo),
        "B": DenseMatrix(E.copy()),
        "C": DenseMatrix.zeros(n, n),
    }
    kern = compile_kernel(KERNELS["entrywise"], fm, backend="vectorized")
    kern.bind(**fm)() if bound else kern(**fm)
    assert np.array_equal(fm["C"].vals, coo.to_dense() * E)


BAD_INDEX = [("CRS", "colind"), ("ITPACK", "colind2d"), ("JDiag", "jdcol"), ("CCS", "rowind"), ("Coordinate", "col")]
TIERS = ("gcc", "no-compiler", "interpreted")


@pytest.mark.parametrize(
    "fmt,index,tier",
    [  # gcc is the default tier: its ids name no tier
        pytest.param(f, i, t, id=f"{f}-{i}" if t == "gcc" else f"{f}-{i}-{t}")
        for f, i in BAD_INDEX
        for t in TIERS
    ],
)
def test_out_of_range_gather_index_raises_at_bind(fmt, index, tier, monkeypatch):
    """C's check twin, or the formats' ``validate()`` before a Python run."""
    if tier == "gcc" and native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    if tier == "no-compiler":
        monkeypatch.setattr(native, "find_compiler", lambda: None)
    clear_kernel_cache()  # a cached kernel keeps the tiers its earlier binds chose
    rng = _rng(f"bad-index/{fmt}")
    # a fresh matrix per case: from_coo may share index arrays with its source
    A = FORMAT_NAMES[fmt].from_coo(gen_uniform(rng, 9))
    fm, _ = _operands("spmv", A, rng)
    kern = compile_kernel(KERNELS["spmv"], fm, backend="interpreted" if tier == "interpreted" else None)
    kern.bind(**fm)  # a sound matrix binds
    assert (kern.native.reason is None) == (tier == "gcc"), kern.native
    getattr(A, index).flat[0] = A.shape[1] + 3
    with pytest.raises(FormatError, match="outside"):
        kern.bind(**fm)
    with pytest.raises(FormatError):
        kern(**fm)  # the unbound call is run(prepare()): same check
    getattr(A, index).flat[0] = -1
    with pytest.raises(FormatError):
        kern.bind(**fm)


@pytest.mark.parametrize("backend", ["vectorized", "interpreted"])
def test_read_only_output_raises_at_bind(backend):
    rng = _rng(f"read-only/{backend}")
    A = FORMAT_NAMES["CRS"].from_coo(gen_uniform(rng, 9))
    fm, _ = _operands("spmv", A, rng)
    kern = compile_kernel(KERNELS["spmv"], fm, backend=backend)
    fm["Y"].vals.setflags(write=False)
    with pytest.raises(FormatError, match="read-only"):
        kern.bind(**fm)
    with pytest.raises(FormatError, match="read-only"):
        kern(**fm)


def test_aliased_output_declines_native_and_keeps_the_numpy_result():
    """``X is Y``: the C run would read X from a register-held Y; the
    kernel stays on numpy and computes exactly what it always did."""
    rng = _rng("alias")
    A = FORMAT_NAMES["CRS"].from_coo(gen_uniform(rng, 9))
    v = rng.standard_normal(9)
    kern = compile_kernel(KERNELS["spmv"], {"A": A, "X": DenseVector(v), "Y": DenseVector(v.copy())})
    shared, want = DenseVector(v.copy()), DenseVector(v.copy())
    kern(A=A, X=shared, Y=shared)
    assert kern.native.reason == "aliasing"
    numpy_run(kern, A=A, X=want, Y=want)
    assert shared.vals.tobytes() == want.vals.tobytes()


def _inside_a(n, rng):
    """A rowscaled operand set whose D and Y are views into A's values: D
    at offset n, Y at 3n — so by address Y follows D, which it does not
    overlap, while the wide A values, which it does, start further back."""
    A = FORMAT_NAMES["CRS"].from_coo(COOMatrix.random(n, n, 0.6, rng=rng))
    assert A.nnz >= 4 * n
    return {"A": A, "X": DenseVector(np.arange(n, dtype=float)),
            "D": DenseVector(A.vals[n : 2 * n]), "Y": DenseVector(A.vals[3 * n : 4 * n])}


def test_an_output_inside_a_wide_operand_past_its_neighbour_declines_native():
    got, want = _inside_a(12, _rng("alias/wide")), _inside_a(12, _rng("alias/wide"))
    kern = compile_kernel(KERNELS["rowscaled"], got, cache=False)
    kern(**got)
    assert kern.native.reason == "aliasing"
    numpy_run(kern, **want)
    assert got["A"].vals.tobytes() == want["A"].vals.tobytes()


def test_inputs_that_share_memory_still_run_as_c():
    """X and D are one array: inputs may overlap each other."""
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    rng = _rng("alias/inputs")
    A = FORMAT_NAMES["CRS"].from_coo(gen_uniform(rng, 9))
    v = rng.standard_normal(9)
    shared = DenseVector(v.copy())
    got = {"A": A, "X": shared, "D": shared, "Y": DenseVector(np.zeros(9))}
    want = {"A": A, "X": DenseVector(v.copy()), "D": DenseVector(v.copy()), "Y": DenseVector(np.zeros(9))}
    kern = compile_kernel(KERNELS["rowscaled"], got, cache=False)
    kern(**got)
    assert kern.native.reason is None, kern.native
    numpy_run(kern, **want)
    assert got["Y"].vals.tobytes() == want["Y"].vals.tobytes()


@pytest.mark.parametrize("operand", ["float32", "strided"])
def test_float32_or_strided_operand_declines_native(operand):
    """float32 matrix values or a strided x: the kernel keeps the Python path."""
    rng = _rng(f"decline/{operand}")
    A = FORMAT_NAMES["CRS"].from_coo(gen_uniform(rng, 9))
    fm, _ = _operands("spmv", A, rng)
    kern = compile_kernel(KERNELS["spmv"], fm)
    want = _clone(fm)
    if operand == "float32":
        A.vals = A.vals.astype(np.float32)
    else:
        fm["X"].vals = want["X"].vals = np.repeat(fm["X"].vals, 2)[::2]
    kern(**fm)
    assert kern.native.reason == {"float32": "dtype", "strided": "non-contiguous"}[operand]
    numpy_run(kern, **want)
    assert fm["Y"].vals.tobytes() == want["Y"].vals.tobytes()


def test_each_bind_owns_its_scratch():
    rng = _rng("own-aux")
    A = FORMAT_NAMES["CRS"].from_coo(gen_uniform(rng, 11))
    fm1, _ = _operands("spmv", A, rng)
    fm2, _ = _operands("spmv", A, rng)
    kern = compile_kernel(KERNELS["spmv"], fm1)
    want1, want2 = _clone(fm1), _clone(fm2)
    kern(**want1)
    kern(**want2)
    b1, b2 = kern.bind(**fm1), kern.bind(**fm2)
    b1(), b2()  # interleaved bound callables of one shared kernel
    assert np.array_equal(fm1["Y"].vals, want1["Y"].vals)
    assert np.array_equal(fm2["Y"].vals, want2["Y"].vals)


def test_coordinate_long_sorted_rows_take_the_segmented_reduce():
    """Rows of >= 12 sorted entries: random-float SpMV on Coordinate is
    bitwise the CRS result — both add each row's entries in order — and
    every reduction op still matches the oracle."""
    rng = _rng("coo-runs")
    n = 24
    dense = (rng.random((n, n)) < 0.8) * rng.standard_normal((n, n))
    coo = FORMAT_NAMES["Coordinate"].from_dense(dense)
    x = rng.standard_normal(n)
    got = {}
    for fmt in ("Coordinate", "CRS"):
        fm = {"A": FORMAT_NAMES[fmt].from_coo(coo), "X": DenseVector(x), "Y": DenseVector.zeros(n)}
        compile_kernel(KERNELS["spmv"], fm)(**fm)
        got[fmt] = fm["Y"].vals
    assert np.array_equal(got["Coordinate"], got["CRS"])
    ints = FORMAT_NAMES["Coordinate"].from_dense(np.rint(3 * dense))
    for kernel in ("spmv", "rowmin", "colmax"):
        fm, out = _operands(kernel, ints, rng)
        oracle_fm = _clone(fm)
        compile_kernel(KERNELS[kernel], fm)(**fm)
        compile_kernel(KERNELS[kernel], oracle_fm, backend="interpreted")(**oracle_fm)
        assert np.array_equal(fm[out].vals, oracle_fm[out].vals)
