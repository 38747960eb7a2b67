"""Report CLI contract: exit codes on malformed input.

``python -m repro.observability.report`` is the one observability entry
point CI shells out to, so its exit codes are API: 0 only when the
report was actually produced, 1 on unreadable or malformed traces.
"""

import json

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.observability.report import main
from repro.observability.trace import disable_tracing, enable_tracing
from repro.runtime.machine import CommModel
from repro.solvers.cg import parallel_cg


@pytest.fixture(scope="module")
def cg_trace(tmp_path_factory):
    """A real 4-rank CG trace."""
    n = 32
    A = np.eye(n) * 4.0
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = -1.0
    b = np.random.default_rng(1).standard_normal(n)
    tracer = enable_tracing()
    try:
        parallel_cg(
            COOMatrix.from_dense(A),
            b,
            nprocs=4,
            niter=6,
            overlap=True,
            model=CommModel(latency=1.2e-3, inv_bandwidth=7.5e-7),
        )
    finally:
        disable_tracing()
    path = tmp_path_factory.mktemp("trace") / "cg4.json"
    tracer.save(str(path))
    return str(path)


def test_missing_file_exits_1(capsys):
    assert main(["/nonexistent/trace.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json at all")
    assert main([str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_json_without_trace_events_exits_1(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text("{}")
    assert main([str(p)]) == 1
    assert "traceEvents" in capsys.readouterr().err


def test_json_scalar_document_exits_1(tmp_path, capsys):
    p = tmp_path / "scalar.json"
    p.write_text("42")
    assert main([str(p)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_empty_event_list_is_a_valid_trace(tmp_path, capsys):
    p = tmp_path / "empty_ok.json"
    p.write_text(json.dumps({"traceEvents": []}))
    assert main([str(p)]) == 0
    out = capsys.readouterr().out
    assert "0 events" in out


def test_plain_report_on_real_trace(cg_trace, capsys):
    assert main([cg_trace]) == 0
    out = capsys.readouterr().out
    assert "span summary" in out and "communication" in out
    assert "comm matrix @" in out and "row Σ" in out


def _trace_with_matrix(tmp_path, matrix):
    p = tmp_path / "comm.json"
    p.write_text(
        json.dumps(
            {
                "traceEvents": [
                    {
                        "name": "comm_matrix",
                        "ph": "i",
                        "ts": 0.0,
                        "tid": "machine",
                        "args": {"nprocs": 2, "matrix": matrix, "total_bytes": 6},
                    }
                ]
            }
        )
    )
    return str(p)


@pytest.mark.parametrize(
    "matrix",
    [[[1, 2], [3]], "oops", [1, 2, 3], [[1, 2, 3]]],
    ids=["ragged", "non-numeric", "one-dimensional", "non-square"],
)
def test_malformed_comm_matrix_exits_1(tmp_path, capsys, matrix):
    assert main([_trace_with_matrix(tmp_path, matrix)]) == 1
    err = capsys.readouterr().err
    assert "malformed trace" in err and "comm_matrix" in err

