"""CLI front end: exit codes, kernel discovery, JSON artifact."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.compiler.autoplan import autoplan
from repro.matrices.mmio import read_matrix_market


def test_list_exits_zero_and_names_all_passes(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("contracts", "doany", "lint", "schedule"):
        assert name in out


def test_all_formats_sweep_is_clean(capsys):
    assert main(["--all-formats"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_example_kernels_lint_clean(capsys):
    # the shipped examples must stay warning-tolerable and error-free
    assert main(["--kernels", "examples/kernels"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_single_pass_selection(capsys):
    assert main(["--passes", "lint"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_unknown_pass_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--passes", "nonsense"])
    assert e.value.code == 2
    assert "unknown pass" in capsys.readouterr().err


def test_no_action_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_unparseable_kernel_is_ber001_and_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.loop"
    bad.write_text("for i in { nonsense")
    assert main(["--kernels", str(bad)]) == 1
    assert "BER001" in capsys.readouterr().out


def test_racy_kernel_fails_with_doany_code(tmp_path, capsys):
    racy = tmp_path / "racy.loop"
    racy.write_text("for i in 0:n { for j in 0:n { Y[i] += A[i,j] * Y[j] } }")
    assert main(["--kernels", str(racy)]) == 1
    assert "BER012" in capsys.readouterr().out


def test_undeclared_racy_kernel_reports_its_findings_without_compiling(tmp_path, capsys):
    """A racy kernel with no ``# depend: sequential`` gives its dependence
    rows and is never handed to the compiler, whose gate would refuse it
    (a BER001 "does not compile" row would hide the reason)."""
    racy = tmp_path / "racy.loop"
    racy.write_text("for i in 0:n { for j in 0:n { Y[i] += A[i,j]*X[j]  Z[i] += A[i,j]*Y[i] } }")
    assert main(["--kernels", str(racy)]) == 1
    out = capsys.readouterr().out
    assert "BER013" in out and "BER001" not in out


def test_json_artifact_round_trips(tmp_path, capsys):
    out_file = tmp_path / "diag.json"
    assert main(["--kernels", "examples/kernels", "--json", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert isinstance(doc["diagnostics"], list)
    assert doc["summary"]["errors"] == 0
    assert all(d["code"].startswith("BER") for d in doc["diagnostics"])


def test_directory_discovery_recurses(tmp_path, capsys):
    sub = tmp_path / "nested" / "deeper"
    sub.mkdir(parents=True)
    (sub / "ok.loop").write_text("for i in 0:n { Y[i] += X[i] }")
    assert main(["--kernels", str(tmp_path)]) == 0


def test_json_records_executed_pass_names(tmp_path):
    out_file = tmp_path / "diag.json"
    assert main(["--passes", "doany,lint", "--json", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["passes"] == ["doany", "lint"]


def test_all_plus_passes_validates_names_instead_of_skipping(capsys):
    """Regression: --all used to shadow --passes entirely, so a typo in
    --passes was silently ignored whenever --all was present."""
    with pytest.raises(SystemExit) as e:
        main(["--all", "--passes", "nonsense"])
    assert e.value.code == 2
    assert "unknown pass" in capsys.readouterr().err


def test_all_plus_passes_runs_each_pass_once(tmp_path):
    out_file = tmp_path / "diag.json"
    assert main(["--all", "--passes", "doany", "--json", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["passes"].count("doany") == 1
    assert "schedule" in doc["passes"]


def _write_band_mtx(path, n=40):
    import numpy as np

    from repro.formats import COOMatrix
    from repro.matrices.mmio import write_matrix_market

    i = np.arange(n)
    coo = COOMatrix.from_entries(
        (n, n),
        np.concatenate([i, i[:-1]]),
        np.concatenate([i, i[1:]]),
        np.ones(2 * n - 1),
    )
    write_matrix_market(coo, str(path))


def test_structure_flag_profiles_matrix_market_file(tmp_path, capsys):
    mtx = tmp_path / "band.mtx"
    _write_band_mtx(mtx)
    assert main(["--structure", str(mtx), "--min-severity", "info"]) == 0
    out = capsys.readouterr().out
    assert "BER050" in out
    pick = autoplan(read_matrix_market(str(mtx))).format_name
    assert f"-> {pick}" in out


def test_structure_flag_json_includes_recommendation(tmp_path):
    mtx = tmp_path / "band.mtx"
    _write_band_mtx(mtx)
    out_file = tmp_path / "diag.json"
    assert main(["--structure", str(mtx), "--json", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert "structure-files" in doc["passes"]
    codes = {d["code"] for d in doc["diagnostics"]}
    assert "BER050" in codes


def test_structure_flag_missing_file_is_ber001_exit_one(tmp_path, capsys):
    assert main(["--structure", str(tmp_path / "nope.mtx")]) == 1
    assert "BER001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# --depend: parallelism-lattice classification with certificates
# ----------------------------------------------------------------------
def test_depend_classifies_examples_and_exits_zero(capsys):
    assert main(["--depend", "examples/kernels"]) == 0
    out = capsys.readouterr().out
    assert "rowprod.loop: REDUCTION(*)" in out
    assert "rowmin.loop: REDUCTION(min)" in out
    assert "colmax.loop: REDUCTION(max)" in out
    assert "gauss_seidel.loop: SEQUENTIAL" in out
    assert "spmv.loop: DOANY" in out


def test_depend_json_carries_certificate_payload(tmp_path, capsys):
    art = tmp_path / "certs.json"
    assert main(["--depend", "examples/kernels/rowprod.loop", "--json", str(art)]) == 0
    doc = json.loads(art.read_text())
    certs = doc["certificates"]
    [cert] = certs.values()
    assert cert["verdict"] == {"kind": "REDUCTION", "op": "*"}
    assert cert["version"] == 1 and cert["fingerprint"]
    j = next(l for l in cert["loops"] if l["var"] == "j")
    assert j["verdict"]["kind"] == "REDUCTION"
    assert any(e["kind"] == "commutes" for e in j["evidence"])


def test_depend_sequential_witness_is_warn_not_error(tmp_path, capsys):
    seq = tmp_path / "seq.loop"
    seq.write_text("for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }")
    assert main(["--depend", str(seq)]) == 0  # classification, not a gate
    out = capsys.readouterr().out
    assert "SEQUENTIAL" in out and "BER062 warn" in out


def test_declared_sequential_kernel_keeps_kernels_sweep_green(tmp_path, capsys):
    k = tmp_path / "gs.loop"
    k.write_text(
        "# depend: sequential\n"
        "for i in 0:n { for j in 0:n { X[i] = X[i] - A[i,j] * X[j] } }\n"
    )
    assert main(["--kernels", str(k)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_stale_sequential_directive_is_an_error(tmp_path, capsys):
    k = tmp_path / "fine.loop"
    k.write_text(
        "# depend: sequential\n"
        "for i in 0:n { Y[i] += X[i] }\n"
    )
    assert main(["--kernels", str(k)]) == 1
    assert "stale directive" in capsys.readouterr().out
