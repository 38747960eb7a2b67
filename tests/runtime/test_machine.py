"""The BSP machine: collectives, SPMD discipline, statistics."""

import numpy as np
import pytest

from repro.errors import PhaseNotFoundError, RuntimeMachineError
from repro.runtime import CommModel, Machine
from repro.runtime.machine import payload_nbytes


def test_alltoallv_routes():
    m = Machine(3)

    def prog(p):
        send = {q: np.array([p * 10 + q]) for q in range(3)}
        recv = yield ("alltoallv", send)
        return {src: v.item() for src, v in recv.items()}

    results, _ = m.run(prog)
    assert results[0] == {0: 0, 1: 10, 2: 20}
    assert results[2] == {0: 2, 1: 12, 2: 22}


def test_alltoallv_partial_sends():
    m = Machine(2)

    def prog(p):
        send = {1: np.ones(4)} if p == 0 else {}
        recv = yield ("alltoallv", send)
        return sorted(recv)

    results, stats = m.run(prog)
    assert results[0] == []
    assert results[1] == [0]
    assert stats.total_msgs() == 1
    assert stats.total_nbytes() == 32


def test_self_message_not_counted():
    m = Machine(2)

    def prog(p):
        recv = yield ("alltoallv", {p: np.ones(10)})
        return recv[p].sum()

    results, stats = m.run(prog)
    assert results == [10.0, 10.0]
    assert stats.total_msgs() == 0


def test_allreduce():
    m = Machine(4)

    def prog(p):
        total = yield ("allreduce", p + 1.0)
        return total

    results, _ = m.run(prog)
    assert results == [10.0] * 4


def test_allreduce_arrays():
    m = Machine(3)

    def prog(p):
        v = yield ("allreduce", np.full(2, float(p)))
        return v

    results, _ = m.run(prog)
    assert np.allclose(results[0], [3.0, 3.0])


def test_allgather():
    m = Machine(3)

    def prog(p):
        vals = yield ("allgather", p * p)
        return vals

    results, _ = m.run(prog)
    assert results[1] == [0, 1, 4]


def test_barrier_and_phase():
    m = Machine(2)

    def prog(p):
        yield ("barrier", None)
        yield ("phase", "work")
        _ = yield ("allreduce", 1.0)
        return "ok"

    results, stats = m.run(prog)
    assert results == ["ok", "ok"]
    w = stats.window("work")
    assert len(w.phases) >= 1
    assert all(ph.kind != "phase" for ph in w.phases)


def test_window_selects_named_region():
    m = Machine(2)

    def prog(p):
        yield ("phase", "a")
        _ = yield ("allreduce", 1.0)
        yield ("phase", "b")
        _ = yield ("allreduce", 1.0)
        _ = yield ("allreduce", 1.0)
        return None

    _, stats = m.run(prog)
    assert len(stats.window("a").phases) == 1
    assert len(stats.window("b").phases) >= 2


def test_mismatched_collectives_raise():
    m = Machine(2)

    def prog(p):
        if p == 0:
            yield ("barrier", None)
        else:
            yield ("allreduce", 1.0)

    with pytest.raises(
        RuntimeMachineError,
        match=r"mismatched collectives at superstep 0: \{'allreduce': \[1\], 'barrier': \[0\]\}",
    ):
        m.run(prog)


def test_early_finish_raises():
    m = Machine(2)

    def prog(p):
        if p == 0:
            return 1
        yield ("barrier", None)
        return 2

    with pytest.raises(
        RuntimeMachineError, match=r"rank\(s\) \[0\] finished at superstep 0"
    ):
        m.run(prog)


def test_unknown_collective():
    m = Machine(1)

    def prog(p):
        yield ("teleport", None)

    with pytest.raises(
        RuntimeMachineError, match="unknown collective 'teleport' at superstep 0"
    ) as err:
        m.run(prog)
    assert err.value.superstep == 0 and err.value.bad_rank is None


def test_bad_destination():
    m = Machine(2)

    def prog(p):
        yield ("alltoallv", {5: np.ones(1)})

    with pytest.raises(
        RuntimeMachineError, match="rank 0 sends to nonexistent rank 5 at superstep 0"
    ) as err:
        m.run(prog)
    assert err.value.bad_rank == 5


def test_premature_finish_reports_deadlocked_ranks():
    m = Machine(3)

    def prog(p):
        yield ("barrier", None)
        if p == 1:
            return None
        yield ("allreduce", 1.0)

    with pytest.raises(
        RuntimeMachineError,
        match=r"rank\(s\) \[1\] finished at superstep 1 while rank\(s\) \[0, 2\] "
        r"still wait in \['allreduce'\] — the waiting ranks deadlock",
    ) as err:
        m.run(prog)
    assert err.value.superstep == 1


def test_yield_from_subroutine():
    m = Machine(2)

    def helper(p):
        s = yield ("allreduce", p)
        return s * 2

    def prog(p):
        doubled = yield from helper(p)
        return doubled

    results, _ = m.run(prog)
    assert results == [2, 2]


def test_parallel_time_positive():
    m = Machine(2)

    def prog(p):
        _ = yield ("alltoallv", {1 - p: np.ones(1000)})
        return None

    _, stats = m.run(prog)
    t = stats.parallel_time(CommModel())
    assert t > 0
    assert stats.total_compute().shape == (2,)


def test_payload_nbytes():
    assert payload_nbytes(np.ones(4)) == 32
    assert payload_nbytes((np.ones(2), np.ones(2))) == 32
    assert payload_nbytes(3.0) == 8
    assert payload_nbytes(None) == 0
    assert payload_nbytes({1: np.ones(1)}) == 16
    assert payload_nbytes("abcd") == 4
    assert payload_nbytes(object()) == 64


def test_payload_nbytes_bools_and_numpy_scalars():
    # bools are one wire byte, and must not fall into the int branch
    assert payload_nbytes(True) == 1
    assert payload_nbytes(np.bool_(False)) == 1
    # numpy scalars know their own width
    assert payload_nbytes(np.float32(1.5)) == 4
    assert payload_nbytes(np.float64(1.5)) == 8
    assert payload_nbytes(np.int16(3)) == 2
    assert payload_nbytes(np.uint8(3)) == 1


def test_payload_nbytes_structured_arrays():
    rec = np.zeros(3, dtype=[("i", np.int32), ("x", np.float64)])
    assert payload_nbytes(rec) == rec.nbytes == 36
    # a single structured record scalar (np.void)
    assert payload_nbytes(rec[0]) == 12
    assert payload_nbytes(np.zeros((2, 2), dtype=np.complex128)) == 64


def test_payload_nbytes_sequences_and_buffers():
    assert payload_nbytes(7) == 8
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(bytearray(b"abcde")) == 5
    assert payload_nbytes([1.0, 2.0, 3.0]) == 24
    assert payload_nbytes(range(4)) == 32
    assert payload_nbytes({1, 2}) == 16
    assert payload_nbytes(frozenset({1.0})) == 8
    assert payload_nbytes(()) == 0
    assert payload_nbytes({}) == 0
    # nesting recurses: dict of tuples of arrays
    nested = {0: (np.ones(2), True), "k": [np.float32(0.0)]}
    assert payload_nbytes(nested) == 8 + (16 + 1) + 1 + 4


def test_payload_nbytes_zero_d_arrays():
    # 0-d arrays are one logical element, never their buffer or a word
    assert payload_nbytes(np.array(3.0)) == 8
    assert payload_nbytes(np.array(3, dtype=np.int16)) == 2
    # 0-d object array prices its single element, not a pointer word
    assert payload_nbytes(np.array(True, dtype=object)) == 1
    assert payload_nbytes(np.array(None, dtype=object)) == 0


def test_payload_nbytes_noncontiguous_views():
    # wire size is logical (size * itemsize) — stride independent
    base = np.arange(16.0)
    assert payload_nbytes(base[::2]) == 8 * 8
    assert payload_nbytes(base[::-1]) == 16 * 8
    m = np.arange(12.0).reshape(3, 4)
    assert payload_nbytes(m[:, 1]) == 3 * 8
    assert payload_nbytes(m.T) == 12 * 8
    assert payload_nbytes(m[1:, 2:]) == 4 * 8
    # broadcast views report the *expanded* logical size
    bcast = np.broadcast_to(np.ones(3), (4, 3))
    assert payload_nbytes(bcast) == 12 * 8
    # empty slices carry nothing
    assert payload_nbytes(base[:0]) == 0


def test_payload_nbytes_object_dtype_recurses():
    arr = np.empty(3, dtype=object)
    arr[0] = np.ones(2)  # 16
    arr[1] = "abc"  # 3
    arr[2] = True  # 1
    assert payload_nbytes(arr) == 20
    # nested object arrays recurse all the way down
    outer = np.empty(1, dtype=object)
    outer[0] = arr
    assert payload_nbytes(outer) == 20


def test_payload_nbytes_memoryview():
    assert payload_nbytes(memoryview(b"abcdef")) == 6
    assert payload_nbytes(memoryview(np.arange(4, dtype=np.int32))) == 16
    assert payload_nbytes(memoryview(b"")) == 0


def test_phase_unknown_label_raises():
    m = Machine(2)

    def prog(p):
        yield ("phase", "inspector")
        _ = yield ("allreduce", 1.0)
        return None

    _, stats = m.run(prog)
    with pytest.raises(PhaseNotFoundError, match="inspector"):
        stats.phase("excutor")  # typo: message lists the known labels
    # it is a KeyError too, and the message is not repr-mangled
    try:
        stats.phase("nope")
    except KeyError as e:
        assert "no phase marker named 'nope'" in str(e)
    assert stats.phase_labels() == ["inspector"]
    # window() is an alias of phase()
    assert stats.window("inspector").phases == stats.phase("inspector").phases
