"""The native tier: a kernel's scalar nest, printed as C and run through ctypes.

At a kernel's first ``bind()`` the ``run`` that ``lower`` printed — the
one printer: the scalar nest — is translated over ``ast`` into C, built
once with gcc, cached on disk and loaded with ctypes; the bound call runs
C and ``exec``-s no Python (a bind that runs it all as Python defines
``kern.python_pair``).  The cache key never sees the tier.  The tier is
decided per unit: a unit stays on Python — counted in
``compiler.native.declined{reason}`` — when it is lowered ``block-gemv``
(blocks large enough for BLAS to win) or its nest does not translate;
the bound call runs each run of consecutive units on one tier, C or
Python, in unit order.  The whole kernel stays on Python when its backend is
``interpreted``, no compiler is on ``PATH``, an operand is neither a
scalar nor a C-contiguous float64/int64/int32 array (a format's storage
holds nothing else), or an output overlaps another operand.  So a C
compiler is needed for speed, not for correctness: both tiers run the same print.

The C nest does the interpreted nest's arithmetic in the same order (an
output slot fixed across the inner loop is summed in a local ``double``),
so native ≡ interpreted bitwise.  Subscripts that no loop's bounds
cover, and loop bounds loaded from memory, are range-checked inline; a
failed check returns a code that becomes ``FormatError``.  ``check``,
the same nest with its stores elided, runs once per ``bind()``.
Libraries live in ``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache``;
a process-private temp directory when that is unwritable or not ours
alone) under ``fingerprint(C source, gcc --version, flags)``: built once
per fingerprint under a file lock, moved into place with ``os.replace``,
and held per process in a :class:`~repro.memo.Memo`.
"""

from __future__ import annotations

import ast
import atexit
import ctypes
import fcntl
import functools
import itertools
import math
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from repro.compiler import codegen
from repro.errors import FormatError
from repro.fingerprint import fingerprint
from repro.memo import Memo
from repro.observability import metrics as _metrics
from repro.observability.trace import span

__all__ = ["NativeState", "find_compiler", "parse", "tier_up", "translate"]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv")
_KINDS = {np.dtype(np.float64): "f", np.dtype(np.int64): "i", np.dtype(np.int32): "j"}  # native byte order only
_CTYPE = {"f": "double", "i": "int64_t", "j": "int32_t"}
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.RShift: ">>"}
_AUGOP = {ast.Add: "+=", ast.Sub: "-=", ast.Mult: "*="}
_UNOP = {ast.USub: "-", ast.UAdd: "+", ast.Not: "!"}
_CMPOP = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}

_PARSE = threading.Lock()  # held by parse()

PRELUDE = """#include <stdint.h>
#define CK(e, n, k) ({ int64_t ck_ = (e); \\
    if (__builtin_expect((uint64_t)ck_ >= (uint64_t)(n), 0)) return (k); ck_; })
/* Python's min/max: the first argument unless the second compares below/above */
static inline double minf_(double a, double b) { return b < a ? b : a; }
static inline double maxf_(double a, double b) { return b > a ? b : a; }
static inline int64_t mini_(int64_t a, int64_t b) { return b < a ? b : a; }
static inline int64_t maxi_(int64_t a, int64_t b) { return b > a ? b : a; }
"""


class Declined(Exception):
    """The kernel stays on Python; ``args[0]`` is the counted reason."""


@dataclass(frozen=True)
class NativeState:
    """``kern.native``: how the most recent ``bind()`` runs; ``units``
    holds each unit's own state, in unit order."""

    reason: str | None = None  # None: the bound call runs C
    fingerprint: str = ""
    origin: str = ""  # "gcc", "disk" or "memo"
    units: tuple["NativeState", ...] = ()

    def __str__(self) -> str:
        if len(set(self.units)) > 1:
            return "; ".join(f"[{k}] {u}" for k, u in enumerate(self.units))
        if self.reason is None:
            return f"native C ({self.fingerprint}, {self.origin})"
        return f"Python — native declined: {self.reason}"


# ----------------------------------------------------------------------
# Python `run` -> C
# ----------------------------------------------------------------------
def _indices(sub: ast.Subscript) -> list:
    return sub.slice.elts if isinstance(sub.slice, ast.Tuple) else [sub.slice]


def _ext(name: str, axis: int) -> str:
    return f"x{axis}_{name}"


class _Printer:
    """One pass over ``run``'s body; ``stores=False`` prints the check twin."""

    def __init__(self, kinds: dict[str, str], checks: list[str], stores: bool):
        self.kinds, self.checks, self.stores = kinds, checks, stores
        self.decl: dict[str, str] = {}  # local -> "i" | "f"
        self.live: set[str] = set()  # locals assigned so far
        self.loops: dict[str, frozenset] = {}  # enclosing loop var -> (array, axis) its bounds cover
        self.acc = None  # (array, ast.dump(subscript), loop number) held in a register
        self.lines: list[str] = []
        self.depth, self.n = 0, 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def code(self, message: str) -> int:
        """The return code of a failed check: 1 + the message's index."""
        if message not in self.checks:
            self.checks.append(message)
        return self.checks.index(message) + 1

    def array(self, node) -> tuple[str, str]:
        kind = self.kinds.get(node.id, "") if isinstance(node, ast.Name) else ""
        if len(kind) != 2:
            raise Declined("syntax")
        return node.id, kind

    def block(self, body) -> None:
        self.depth += 1
        for node in body:
            self.stmt(node)
        self.depth -= 1

    def stmt(self, node) -> None:
        if isinstance(node, (ast.Continue, ast.Break)):
            self.emit(f"{type(node).__name__.lower()};")
        elif isinstance(node, ast.If) or isinstance(node, ast.While) and not node.orelse:
            self.emit(f"{type(node).__name__.lower()} ({self.expr(node.test)[0]}) {{")
            self.block(node.body)
            if node.orelse:
                self.emit("} else {")
                self.block(node.orelse)
            self.emit("}")
        elif isinstance(node, ast.For):
            self.loop(node)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            self.assign(node.targets[0], "=", node.value)
        elif isinstance(node, ast.AugAssign) and type(node.op) in _AUGOP:
            self.assign(node.target, _AUGOP[type(node.op)], node.value)
        elif not isinstance(node, ast.Pass):
            raise Declined("syntax")

    def assign(self, target, op: str, value) -> None:
        if isinstance(target, ast.Name):
            code, t = self.expr(value)
            if op == "=":
                self.live.add(target.id)
            if self.decl.setdefault(target.id, t) != t or target.id not in self.live:
                raise Declined("types")
            self.emit(f"v_{target.id} {op} {code};")
        elif not isinstance(target, ast.Subscript):
            raise Declined("syntax")
        elif all(isinstance(e, ast.Slice) for e in _indices(target)):  # a plain assignment's zero fill
            name, kind = self.array(target.value)
            fill = value.value if isinstance(value, ast.Constant) else None
            if op != "=" or kind[0] != "f" or type(fill) not in (int, float):
                raise Declined("syntax")
            size = " * ".join(_ext(name, a) for a in range(int(kind[1])))
            if self.stores:
                self.emit(f"for (int64_t z_ = 0; z_ < {size}; z_++) v_{name}[z_] = {float(fill)!r};")
        else:
            rhs = self.expr(value)[0]
            if self.acc and self.is_acc(target):
                self.emit(f"acc_{self.acc[2]} {op} {rhs};")
                return
            lhs, t = self.subscript(target)
            if t != "f":
                raise Declined("types")
            self.emit(f"{lhs} {op} {rhs};" if self.stores else f"(void)&{lhs}; (void)({rhs});")

    def loop(self, node) -> None:
        it = node.iter
        if not (
            isinstance(node.target, ast.Name) and not node.orelse and isinstance(it, ast.Call)
            and getattr(it.func, "id", None) == "range" and len(it.args) in (1, 2) and not it.keywords
        ):
            raise Declined("syntax")
        var, bounds = node.target.id, [self.expr(a) for a in it.args]
        if any(t != "i" for _, t in bounds) or self.decl.get(var, "i") != "i":
            raise Declined("types")
        lo, hi = ("0", bounds[0][0]) if len(bounds) == 1 else (bounds[0][0], bounds[1][0])
        self.n += 1
        k, nodes = self.n, [n for s in node.body for n in ast.walk(s)]
        assigned = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if var in assigned:  # rebinding it would steer C's loop, not Python's
            raise Declined("syntax")
        # a subscript that is exactly the loop variable is covered by one
        # check of the bounds against that array's extent, made up front
        covered = frozenset(
            (n.value.id, axis)
            for n in nodes
            if isinstance(n, ast.Subscript) and len(self.kinds.get(getattr(n.value, "id", ""), "")) == 2
            for axis, e in enumerate(_indices(n))
            if isinstance(e, ast.Name) and e.id == var
        )
        bad = [f"hi_{k} < lo_{k}"] if any(isinstance(n, ast.Subscript) for n in ast.walk(it)) else []
        if covered:
            past = " || ".join(f"hi_{k} > {_ext(a, x)}" for a, x in sorted(covered))
            bad.append(f"(lo_{k} < hi_{k} && (lo_{k} < 0 || {past}))")
        self.emit("{")
        self.depth += 1
        self.emit(f"const int64_t lo_{k} = {lo}, hi_{k} = {hi};")
        if bad:
            names = ", ".join(sorted({a for a, _ in covered})) or "nothing"
            msg = f"the bounds of the loop over {var} run backwards or past the end of {names}"
            self.emit(f"if ({' || '.join(bad)}) return {self.code(msg)};")
        target = self.stores and self.accumulator(node.body, nodes, var, assigned)
        if target:
            self.emit(f"double *const p_{k} = &{self.subscript(target)[0]}, acc_{k} = *p_{k};")
            self.acc = (target.value.id, ast.dump(target.slice), k)
        self.loops[var] = covered  # no enclosing loop has this variable: it would be rebinding it
        self.emit(f"for (int64_t v_{var} = lo_{k}; v_{var} < hi_{k}; v_{var}++) {{")
        self.block(node.body)
        self.emit("}")
        del self.loops[var]
        self.live.discard(var)  # Python's loop variable outlives the loop; C's does not
        if target:
            self.emit(f"*p_{k} = acc_{k};")
            self.acc = None
        self.depth -= 1
        self.emit("}")

    def accumulator(self, body, nodes, var: str, assigned: set[str]):
        """The one store of an innermost loop, when its slot does not move
        with the loop and nothing in the loop reads that array at another
        slot: it is then kept in a register — the same operations in the
        same order, without a store-to-load trip per iteration.  (An empty
        loop loads and stores the slot back unchanged.)"""
        stores = [n for n in nodes if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)]
        if any(isinstance(n, (ast.For, ast.While)) for n in nodes) or len(stores) != 1:
            return None
        (target,) = stores
        if not any(target in getattr(s, "targets", [getattr(s, "target", None)]) for s in body):
            return None  # the store sits under an `if`
        name, kind = self.array(target.value)
        uses = {n.id for n in ast.walk(target.slice) if isinstance(n, ast.Name)}
        dump = ast.dump(target.slice)
        if kind[0] != "f" or var in uses or uses & assigned or any(
            isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == name and ast.dump(n.slice) != dump
            for n in nodes
        ):
            return None
        return target

    def is_acc(self, node) -> bool:
        return getattr(node.value, "id", None) == self.acc[0] and ast.dump(node.slice) == self.acc[1]

    def expr(self, node) -> tuple[str, str]:
        """``(C code, "i" | "f")`` of a Python expression."""
        if isinstance(node, ast.Constant):
            if type(node.value) is int and abs(node.value) < 2**62:
                return str(node.value), "i"
            if type(node.value) is float and math.isfinite(node.value):
                return repr(node.value), "f"
        elif isinstance(node, ast.Name):
            kind = self.kinds.get(node.id)
            if node.id in self.loops:
                return f"v_{node.id}", "i"
            if kind in ("i", "f") or node.id in self.live:
                return f"v_{node.id}", kind or self.decl[node.id]
            raise Declined("syntax")
        elif isinstance(node, ast.Subscript):
            if self.acc and self.is_acc(node):
                return f"acc_{self.acc[2]}", "f"
            return self.subscript(node)
        elif isinstance(node, ast.BinOp) and (isinstance(node.op, ast.Div) or type(node.op) in _BINOP):
            (a, ta), (b, tb) = self.expr(node.left), self.expr(node.right)
            if isinstance(node.op, ast.Div):
                return f"((double){a} / (double){b})", "f"
            if isinstance(node.op, ast.RShift) and "f" in (ta, tb):  # a search's midpoint: integers only
                raise Declined("types")
            return f"({a} {_BINOP[type(node.op)]} {b})", "f" if "f" in (ta, tb) else "i"
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNOP:
            a, t = self.expr(node.operand)
            op = _UNOP[type(node.op)]
            return f"({op}{a})", "i" if op == "!" else t
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _CMPOP:
            a, b = self.expr(node.left)[0], self.expr(node.comparators[0])[0]
            return f"({a} {_CMPOP[type(node.ops[0])]} {b})", "i"
        elif isinstance(node, ast.BoolOp) and all(isinstance(v, (ast.Compare, ast.BoolOp)) for v in node.values):
            op = " && " if isinstance(node.op, ast.And) else " || "  # of bools: a bool, as in C
            return "(" + op.join(self.expr(v)[0] for v in node.values) + ")", "i"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = node.func.id
            if fn in ("min", "max") and len(node.args) == 2 and not node.keywords:
                (a, ta), (b, tb) = (self.expr(x) for x in node.args)
                if ta == tb:  # mixed: Python returns whichever operand wins, int or float
                    return f"{fn}{ta}_({a}, {b})", ta
                raise Declined("types")
        raise Declined("syntax")

    def subscript(self, node) -> tuple[str, str]:
        """The element ``node`` names, each index range-checked unless an
        enclosing loop's bounds already cover it."""
        name, kind = self.array(node.value)
        idx = _indices(node)
        if len(idx) != int(kind[1]):
            raise Declined("syntax")
        parts = []
        for axis, e in enumerate(idx):
            code, t = self.expr(e)
            if t != "i":
                raise Declined("types")
            if not (isinstance(e, ast.Name) and (name, axis) in self.loops.get(e.id, ())):
                k = self.code(f"an index into {name} (axis {axis}) falls outside its extent")
                code = f"CK({code}, {_ext(name, axis)}, {k})"
            parts.append(code)
        flat = parts[0] if len(parts) == 1 else f"{parts[0]} * {_ext(name, 1)} + {parts[1]}"
        if kind[0] == "j":  # an int32 load widens: index arithmetic stays int64
            return f"((int64_t)v_{name}[{flat}])", "i"
        return f"v_{name}[{flat}]", kind[0]


def parse(source: str) -> ast.Module:
    """``ast.parse`` under one package-wide lock: CPython 3.11's parser
    run by two threads at once can corrupt its recursion counter."""
    with _PARSE:
        return ast.parse(source)


@functools.lru_cache(maxsize=1024)
def translate(source: str, kinds: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """C for the ``run`` in ``source`` (the scalar nest :mod:`codegen`
    prints): ``int64_t run(const int64_t *a_)`` and its check twin
    ``check``, both reading every parameter from one slot array, plus the
    message of each nonzero return code.  ``kinds`` gives, per parameter of
    ``run`` but ``aux``, ``f1``/``f2``/``i1``/``i2``/``j1``/``j2`` (a
    float64/int64/int32 array of that rank) or ``i``/``f`` (a scalar); an
    int32 load is an int64 expression.  Raises :class:`Declined` on
    anything outside the translated subset."""
    (fn,) = [n for n in parse(source).body if isinstance(n, ast.FunctionDef) and n.name == "run"]
    params = [a.arg for a in fn.args.args[:-1]]  # the trailing parameter is aux
    unpack, slot = [], 0  # an array's slots are its address then its extents
    for p, kind in zip(params, kinds):
        ctype = _CTYPE.get(kind[0])
        if len(kind) == 2:
            # a pointer read, not cast from an integer: gcc then indexes int32 and float64 arrays off one counter
            unpack.append(f"{ctype} *const v_{p} = (({ctype} *const *)a_)[{slot}];")
            unpack += [f"const int64_t {_ext(p, a)} = a_[{slot + 1 + a}];" for a in range(int(kind[1]))]
            slot += 1 + int(kind[1])
        elif ctype:
            unpack.append(f"const {ctype} v_{p} = ((const {ctype} *)a_)[{slot}];")
            slot += 1
    checks: list[str] = []
    funcs = []
    for name, stores in (("run", True), ("check", False)):
        pr = _Printer(dict(zip(params, kinds)), checks, stores)
        pr.block(fn.body)
        head = unpack + [f"{_CTYPE[t]} v_{n} = 0;" for n, t in pr.decl.items()]
        body = ["    " + line for line in head] + pr.lines
        funcs.append("\n".join([f"int64_t {name}(const int64_t *a_) {{", *body, "    return 0;", "}"]))
    return PRELUDE + "\n" + "\n\n".join(funcs) + "\n", tuple(checks)


# ----------------------------------------------------------------------
# toolchain: compiler discovery, the disk cache, the per-process memo
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def find_compiler() -> tuple[str, str] | None:
    """``(path, version text)`` of the C compiler on ``PATH``, or None."""
    path = shutil.which("gcc") or shutil.which("cc")
    if path is None:
        return None
    try:
        out = subprocess.run([path, "--version"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return (path, out.stdout) if out.returncode == 0 else None


@functools.lru_cache(maxsize=None)
def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, path, True)
    return path


def cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro/native`` (mode 0700), or a process-private
    temp directory when that cannot be written — or when it is not ours
    alone: its libraries get ``dlopen``-ed, so a directory another user
    owns or may write to could plant code in this process."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro", "native")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return _private_dir()
    ours = st.st_uid == os.getuid() and not st.st_mode & 0o022
    return path if ours and os.access(path, os.W_OK | os.X_OK) else _private_dir()


def _shared_object(fp: str, c_source: str, cc: str) -> tuple[str, str]:
    """The library's path, and whether it came from ``disk`` or ``gcc``."""
    so = os.path.join(cache_dir(), f"{fp}.so")
    with open(f"{so}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per fingerprint across processes
        if os.path.exists(so):
            return so, "disk"
        tmp = f"{so}.{os.getpid()}.tmp"
        cmd = [cc, *FLAGS, "-x", "c", "-", "-o", tmp]
        if subprocess.run(cmd, input=c_source, capture_output=True, text=True).returncode:
            raise Declined("build-failed")
        os.replace(tmp, so)
    _metrics.record("compiler.native.builds")
    return so, "gcc"


#: this process's loaded libraries, keyed by C source (as many as
#: ``translate`` keeps): one build and one ``dlopen`` per fingerprint
_LIBRARIES = Memo("compiler.native", max_entries=1024)


def _load(c_source: str) -> tuple[tuple, str, str]:
    """``((run, check), fingerprint, origin)``, the origin ``memo`` unless
    this call built or opened the library."""
    cc = find_compiler()
    if cc is None:
        raise Declined("no-compiler")

    def build():
        fp = fingerprint("\n".join([c_source, cc[1], " ".join(FLAGS)]))
        try:  # an unrunnable compiler, an unwritable or noexec cache
            path, origin = _shared_object(fp, c_source, cc[0])
            lib = ctypes.CDLL(path)
        except OSError:
            raise Declined("build-failed") from None
        _metrics.record("compiler.native.loads")
        for f in (lib.run, lib.check):
            f.argtypes, f.restype = [ctypes.c_void_p], ctypes.c_int64
        return (lib.run, lib.check), fp, origin

    (funcs, fp, origin), outcome = _LIBRARIES.get_or_build(c_source, build)
    return funcs, fp, origin if outcome == "compiled" else "memo"


# ----------------------------------------------------------------------
# bind-time tier-up
# ----------------------------------------------------------------------
def _operands(kern, args) -> tuple[tuple[str, ...], str, list]:
    """Each operand's kind, and the slots that pass them all to C — an
    array's address then its extents, a scalar's value — as a ``struct``
    format and values.  Declines an array dtype other than float64, int64
    or int32 (a format's index width), a strided array, and an output
    whose bytes overlap another operand's."""
    kinds, fmt, values, spans = [], "", [], []
    for v in args:
        if isinstance(v, np.ndarray):
            if v.dtype not in _KINDS:
                raise Declined("dtype")
            if not v.flags.c_contiguous:
                raise Declined("non-contiguous")
            first = v.ctypes.data
            spans.append((first, first + v.nbytes, len(kinds)))
            kinds.append(f"{_KINDS[v.dtype]}{v.ndim}")
            fmt += "q" * (1 + v.ndim)
            values += [first, *v.shape]
        elif type(v) in (float, np.float64):
            kinds.append("f")
            fmt += "d"
            values.append(v)
        elif isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63:
            kinds.append("i")
            fmt += "q"
            values.append(v)
        else:
            raise Declined("dtype")
    # in address order, a range starting below the furthest end so far overlaps the group it joins
    outputs, end, out = set(kern._outputs), -1, False
    for lo, hi, i in sorted(spans):
        if lo >= end:  # a new group: nothing before it overlaps it
            out, end = i in outputs, hi
        elif out or i in outputs:  # a group's every range overlaps another: one is an output
            raise Declined("aliasing")
        end = max(end, hi)
    return tuple(kinds), fmt, values


def _state(units) -> NativeState:
    """``kern.native`` over its per-unit states: a uniform kernel's one
    state, else the first declined unit's reason."""
    first = next((u for u in units if u.reason), units[0])
    if all(u == first for u in units):
        return NativeState(first.reason, first.fingerprint, first.origin, tuple(units))
    return NativeState(first.reason, units=tuple(units))


def _source(kern, formats, units) -> str:
    """The source of ``units`` alone, lowered through the kernel's backend
    (all of them: the kernel's own print)."""
    if len(units) == len(kern.units):
        return kern.source
    return codegen.generate_source(kern.program, units, formats, kern.param_names, kern.backend)[0]


def _runs(states):
    """``(native?, unit indices)`` per run of consecutive units on one tier."""
    for native, ks in itertools.groupby(range(len(states)), lambda k: states[k].reason is None):
        yield native, list(ks)


def _tier_up(kern, formats, kinds, reasons):
    """``(steps, state, counted)`` for these operand kinds: per run of
    consecutive units on one tier, ``(True, run, check, messages)`` of its
    loaded C nest or ``(False, prepare, run, prepare names)`` of its Python
    pair (``steps`` is None when every unit stays on the kernel's own
    pair); ``kern.native``; the reasons each bind counts.  ``reasons``
    holds the label each unit declines on, or None.  The whole nest is
    translated first; only when that declines is each unit tried alone."""
    n, units = len(kern.units), kern.units
    states = [NativeState(r) for r in reasons]
    with span("compiler.native.build", backend=kern.backend) as sp:
        whole = None
        if not any(reasons):
            try:
                whole = translate(_source(kern, formats, units), kinds)
            except Declined as exc:
                if n == 1:
                    states[0] = NativeState(exc.args[0])
        if whole is None and n > 1:
            for k in (k for k, r in enumerate(reasons) if r is None):
                try:
                    translate(_source(kern, formats, units[k : k + 1]), kinds)
                except Declined as exc:
                    states[k] = NativeState(exc.args[0])
        counted = [s.reason for s in states if s.reason]
        libraries = {}
        for native, ks in list(_runs(states)):
            if native:
                try:
                    c_source, checks = whole or translate(_source(kern, formats, [units[k] for k in ks]), kinds)
                    funcs, fp, origin = _load(c_source)
                except Declined as exc:  # no compiler, a failed build, or units that translate
                    # alone but not together: counted once per run
                    counted.append(exc.args[0])
                    states[ks[0] : ks[-1] + 1] = [NativeState(exc.args[0])] * len(ks)
                else:
                    libraries[ks[0]] = (True, *funcs, checks)
                    states[ks[0] : ks[-1] + 1] = [NativeState(None, fp, origin)] * len(ks)
        sp.set(declined=counted, libraries=len(libraries))
    steps = None
    if libraries:
        steps = [
            libraries[ks[0]] if native else (False, *codegen.define(_source(kern, formats, [units[k] for k in ks])))
            for native, ks in _runs(states)
        ]
    return steps, _state(states), tuple(counted)


def tier_up(kern, formats, args):
    """The bound call's steps for these operands, in unit order: a C call
    (check twin run) per run of units that translate, a Python ``(prepare,
    run, prepare names)`` per run that does not; None when the whole kernel
    stays on its own Python pair.  Sets ``kern.native`` either way.  Every
    label but ``block-gemv`` (blocks large enough for BLAS) tiers up."""
    reasons = tuple(lb if lb == "block-gemv" else None for lb in kern.unit_backends)
    try:
        if kern.backend == "interpreted":
            raise Declined("interpreted")
        if None not in reasons:  # every unit declines on its label
            tiers = None, _state([NativeState(r) for r in reasons]), reasons
        else:
            kinds, fmt, values = _operands(kern, args)
            tiers = kern._native_memo.get(kinds)
            if tiers is None:
                tiers = _tier_up(kern, formats, kinds, reasons)
                if not {"no-compiler", "build-failed"}.intersection(tiers[2]):  # the toolchain may come back
                    kern._native_memo[kinds] = tiers
    except Declined as exc:  # the whole kernel: counted once
        tiers = None, _state([NativeState(exc.args[0])] * len(reasons)), exc.args
    steps, kern.native, counted = tiers
    for r in counted:
        _metrics.record("compiler.native.declined", reason=r)
    if steps is None:
        return None
    slots = ctypes.create_string_buffer(struct.pack(fmt, *values))
    addr = ctypes.addressof(slots)

    def native_call(run, check, checks):
        def call(fn=run) -> None:
            rc = fn(addr)
            if rc:
                raise FormatError(f"native run: {checks[rc - 1]}")

        call(check)
        call.operands = (slots, args)  # the addresses in `slots` point into these
        return call

    return [native_call(*s[1:]) if s[0] else s[1:] for s in steps]
