"""Shared standalone main for the ``bench_*.py`` scripts without a bespoke CLI.

``python benchmarks/bench_<name>.py [--smoke]`` runs the script's
``measure(args)`` — whose own asserts fail the run — and prints the
headline scalar it returns.
"""

import argparse

__all__ = ["bench_main"]


def bench_main(bench, measure, direction="lower", description=None, argv=None) -> int:
    """Parse ``--smoke``, run ``measure(args) -> headline``, print it."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--smoke", action="store_true", help="shrunken problem, CI-sized")
    value = measure(ap.parse_args(argv))
    print(f"{bench}: headline={value:.6g} ({direction} is better)")
    return 0
