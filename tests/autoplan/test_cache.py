"""PlanCache behavior under autoplan (mirrors the PR-2 PermutedMatrix
collision regression): re-analyzing the same matrix must be a pure cache
hit, while structurally different matrices of equal shape — which share
the program, format spec, backend and planner options — must be kept
apart by the profile-fingerprint ``extra_key``."""

import numpy as np

from repro.compiler import autoplan, clear_kernel_cache, kernel_cache_stats
from repro.compiler.kernels import KERNEL_CACHE
from repro.compiler.parser import parse
from repro.compiler.plan_cache import kernel_cache_key
from repro.formats import COOMatrix
from repro.formats.crs import CRSMatrix
from repro.formats.dense import DenseVector
from repro.kernels.spmv import SPMV_SRC
from tests.conftest import case_rng
from tests.generators import gen_banded, gen_power_law


def _compile_auto(coo):
    plan = autoplan(coo)
    kernel, formats = plan.compile(coo, source=SPMV_SRC)
    return plan, kernel


def test_same_matrix_reanalyzed_twice_hits_the_cache():
    clear_kernel_cache()
    coo = gen_banded(case_rng(50), 64)
    plan1, k1 = _compile_auto(coo)
    miss_stats = kernel_cache_stats()
    plan2, k2 = _compile_auto(coo)
    hit_stats = kernel_cache_stats()
    # the second full analyze->plan->compile round-trip found the kernel
    assert plan1.profile.fingerprint() == plan2.profile.fingerprint()
    assert plan1.format_name == plan2.format_name
    assert k2 is k1
    assert hit_stats["hits"] == miss_stats["hits"] + 1
    assert hit_stats["misses"] == miss_stats["misses"]
    assert hit_stats["size"] == miss_stats["size"]


def test_structurally_different_equal_shape_matrices_do_not_collide():
    clear_kernel_cache()
    banded = gen_banded(case_rng(51), 64)
    skewed = gen_power_law(case_rng(52), 64)
    assert banded.shape == skewed.shape

    pa = autoplan(banded)
    pb = autoplan(skewed)
    assert pa.profile.fingerprint() != pb.profile.fingerprint()

    # force the *same* format+backend for both so every classic key
    # component matches and only the fingerprint can separate them
    fa, fb = CRSMatrix.from_coo(banded), CRSMatrix.from_coo(skewed)
    program = parse(SPMV_SRC)
    classic = lambda fmt: kernel_cache_key(
        program,
        {"A": fmt, "X": DenseVector.zeros(64), "Y": DenseVector.zeros(64)},
        "vectorized",
    )
    assert classic(fa) == classic(fb)  # the collision the extra_key prevents
    keyed = lambda fmt, plan: kernel_cache_key(
        program,
        {"A": fmt, "X": DenseVector.zeros(64), "Y": DenseVector.zeros(64)},
        "vectorized",
        extra_key=("autoplan", plan.profile.fingerprint()),
    )
    assert keyed(fa, pa) != keyed(fb, pb)


def test_autoplanned_compiles_occupy_distinct_cache_slots():
    clear_kernel_cache()
    banded = gen_banded(case_rng(53), 48)
    skewed = gen_power_law(case_rng(54), 48)
    _compile_auto(banded)
    size_after_first = len(KERNEL_CACHE)
    _, k2 = _compile_auto(skewed)
    # even if both plans landed on the same format and backend, the
    # second compile must not have been served the first matrix's kernel
    assert len(KERNEL_CACHE) == size_after_first + 1


def test_extra_key_defaults_to_empty_and_is_order_stable():
    program = parse(SPMV_SRC)
    fmts = {
        "A": CRSMatrix.from_coo(gen_banded(case_rng(55), 16)),
        "X": DenseVector.zeros(16),
        "Y": DenseVector.zeros(16),
    }
    base = kernel_cache_key(program, fmts, "vectorized")
    assert base == kernel_cache_key(program, fmts, "vectorized", extra_key=())
    assert base != kernel_cache_key(program, fmts, "vectorized", extra_key=("x",))
