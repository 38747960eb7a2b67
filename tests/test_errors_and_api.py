"""Error hierarchy sanity + public API surface checks."""

import pytest

import repro
from repro.errors import (
    CompileError,
    DistributionError,
    FormatError,
    InspectorError,
    ParseError,
    PlanningError,
    ReproError,
    RuntimeMachineError,
    SparsityError,
)


def test_all_errors_derive_from_repro_error():
    for exc in (
        FormatError,
        CompileError,
        ParseError,
        PlanningError,
        SparsityError,
        DistributionError,
        RuntimeMachineError,
        InspectorError,
    ):
        assert issubclass(exc, ReproError)


def test_compiler_errors_are_compile_errors():
    assert issubclass(ParseError, CompileError)
    assert issubclass(PlanningError, CompileError)
    assert issubclass(SparsityError, CompileError)


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_format_registry_covers_table1():
    for name in ("Diagonal", "Coordinate", "CRS", "ITPACK", "JDiag", "BS95"):
        assert name in repro.FORMAT_NAMES
    with pytest.raises(KeyError):
        repro.matrix_format_by_name("nope")


def test_version_string():
    assert repro.__version__.count(".") == 2
