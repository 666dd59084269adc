"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function with a wrapper that
records a span: call count and self time, which is the span's duration
minus the time covered by the traced spans it caused. ``from .linalg
import nullspace`` copies the binding into the importing module, so a
wrapper goes into every ``lieaffine`` module namespace that binds the
original object, under whatever name. A traced name that does not exist
in its home module is listed in ``missing`` and reported with zero
counts; the run goes on.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (module under src/lieaffine) -> traced functions; "Class.method"
# names a method. `errors` does no work and is not traced.
TRACED = {
    "cli": ("main",),
    "serialize": ("algebra_from_json", "certificate_to_json",
                  "certificate_from_json", "verdict_to_json", "verdict_from_json"),
    "catalog": ("make_ln", "make_qn", "make_cn", "make_benoist"),
    "liealg": ("jacobi_report", "derived_subalgebra", "lower_central_series",
               "algebra_hash", "LieAlgebra.bracket", "LieAlgebra.ad"),
    "derivations": ("derivation_space", "diagonal_derivations",
                    "find_regular_derivation", "find_derived_regular_derivation",
                    "restrict_to_derived", "is_derivation", "char_nilpotent_verdict",
                    "verify_witness"),
    "affine": ("synthesize", "from_regular_derivation", "from_derived_regular",
               "from_symplectic", "find_symplectic", "verify_affine",
               "reverify_certificate"),
    "linalg": ("rref", "nullspace", "span", "determinant", "invert", "is_nilpotent",
               "Matrix.__mul__"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)

_SEARCHES = ("derivations.find_regular_derivation",
             "derivations.find_derived_regular_derivation")

COUNTERS = ("serialize.bytes_out", "derivations.search.candidates",
            "derivations.search.calls", "derivations.search.hits", "linalg.rref.cells",
            "linalg.Matrix.entries")


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list = []
        self._stack: list = []
        self._searching = 0

    def _span(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        hook = {"linalg.rref": self._count_rref,
                "linalg.determinant": self._count_candidate}.get(name)
        is_search = name in _SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            if is_search:
                self._searching += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if is_search:
                    self._searching -= 1
            if is_search:
                self.counters["derivations.search.calls"] += 1
                self.counters["derivations.search.hits"] += result is not None
            return result

        return wrapper

    def _count_rref(self, args) -> None:
        if args:
            self.counters["linalg.rref.cells"] += args[0].rows * args[0].cols

    def _count_candidate(self, args) -> None:
        if self._searching:
            self.counters["derivations.search.candidates"] += 1

    def install(self, package: str = "lieaffine") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for qual in names:
                span = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(span)
                    continue
                wrapper = self._span(span, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound, wrapper)
        self._count_matrix_entries(sys.modules.get(f"{package}.linalg"))

    def _count_matrix_entries(self, linalg) -> None:
        matrix = getattr(linalg, "Matrix", None)
        init = vars(matrix).get("__init__") if matrix is not None else None
        if init is None:
            self.missing.append("linalg.Matrix.entries")
            return
        counters = self.counters

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counters["linalg.Matrix.entries"] += obj.rows * obj.cols

        matrix.__init__ = counting_init

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "missing": list(self.missing)}
