"""Differential tests for the executor backends.

Every compiled result is checked three ways: the vectorized backend, the
interpreted backend, and the dense reference executor
(:func:`repro.compiler.reference.run_reference`) must agree on the same
program and data — the two backends bitwise wherever no unit is
``block-gemv`` (they run one print, as C or as Python), the reference to
numerical tolerance.  Alongside the equivalence properties live the
plan-cache correctness tests (distinct format specs and sparsity
predicates must not collide).
"""
