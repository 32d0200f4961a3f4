"""Outside-in spans around the public functions of each nliecoh module.

The tracer times the program's layers without editing it: ``install``
replaces each target with a wrapper that records a span and calls the
original, and rebinds the wrapper under every name a ``nliecoh`` module
imported the original as.  The original stays inside the wrapper, so
``lru_cache`` and ``cached_property`` keep caching as before.  Spans stay in
memory and are written out by the caller when the run ends.

A layer's self time is its spans' duration minus the time covered by their
child spans.  Facts about matrices (shape, nonzero count, largest entry bit
length) are taken inside a ``trace`` span of their own, so the cost of
taking them lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from fractions import Fraction

# (span name, "module:attribute path") for every wrapped callable.  A target
# the program no longer has is skipped and reported in ``missing``.
TARGETS = (
    ("cli", "nliecoh.cli:main"),
    ("jsonio.load", "nliecoh.jsonio:load_json"),
    ("jsonio.load", "nliecoh.jsonio:load_algebra"),
    ("jsonio.load", "nliecoh.jsonio:load_morphism"),
    ("jsonio.load", "nliecoh.jsonio:load_deformation"),
    ("jsonio.load", "nliecoh.jsonio:load_automorphism"),
    ("jsonio.load", "nliecoh.jsonio:algebra_from_json"),
    ("jsonio.load", "nliecoh.jsonio:morphism_from_json"),
    ("jsonio.load", "nliecoh.jsonio:deformation_from_json"),
    ("jsonio.load", "nliecoh.jsonio:automorphism_from_json"),
    ("jsonio.render", "nliecoh.jsonio:dump_json"),
    ("jsonio.render", "nliecoh.jsonio:cochain_to_json"),
    ("jsonio.render", "nliecoh.jsonio:triple_to_json"),
    ("jsonio.render", "nliecoh.jsonio:deformation_to_json"),
    ("algebra.validate", "nliecoh.algebra:validate_algebra"),
    ("cochains.enumerate", "nliecoh.cochains:CochainSpace.domain_keys"),
    ("cochains.enumerate", "nliecoh.cochains:CochainSpace._key_pos"),
    ("cochains.assemble", "nliecoh.cochains:coboundary_matrix_self"),
    ("cochains.assemble", "nliecoh.cochains:coboundary_matrix_module"),
    ("cochains.cohomology", "nliecoh.cochains:cohomology"),
    ("linalg.mul", "nliecoh.linalg:Matrix.mul"),
    ("linalg.elim", "nliecoh.linalg:kernel_basis"),
    ("linalg.elim", "nliecoh.linalg:rank"),
    ("linalg.elim", "nliecoh.linalg:solve"),
    ("linalg.quotient", "nliecoh.linalg:quotient_data"),
    ("morphisms.validate", "nliecoh.morphisms:validate_morphism"),
    ("morphisms.delta", "nliecoh.morphisms:TripleComplex.delta_matrix"),
    ("morphisms.triple_complex", "nliecoh.morphisms:triple_complex"),
    ("deformations.residual", "nliecoh.deformations:validate_deformation"),
    ("deformations.obstruction", "nliecoh.deformations:obstruction"),
    ("deformations.extend", "nliecoh.deformations:extend_order"),
    ("deformations.extend", "nliecoh.deformations:extend_deformation"),
    ("deformations.transform", "nliecoh.deformations:apply_automorphism"),
)

# The d∘d check is the product of consecutive differentials taken inside
# ``cochains.cohomology``; other matrix products stay ``linalg.mul``.
DDCHECK_PARENT = "cochains.cohomology"

# Per-layer metrics: (name, unit).  ``aggregate`` computes each of them.
METRICS = (
    ("jsonio.load.calls", "count"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.render.self_s", "s"),
    ("jsonio.render.bytes", "bytes"),
    ("algebra.validate.calls", "count"),
    ("algebra.validate.self_s", "s"),
    ("algebra.validate.useful_ratio", "ratio"),
    ("cochains.enumerate.self_s", "s"),
    ("cochains.assemble.calls", "count"),
    ("cochains.assemble.self_s", "s"),
    ("cochains.assemble.cells", "count"),
    ("cochains.assemble.nnz", "count"),
    ("cochains.ddcheck.self_s", "s"),
    ("cochains.ddcheck.cells", "count"),
    ("linalg.elim.calls", "count"),
    ("linalg.elim.self_s", "s"),
    ("linalg.elim.cells", "count"),
    ("linalg.elim.nnz", "count"),
    ("linalg.elim.max_bits", "bits"),
    ("linalg.quotient.self_s", "s"),
    ("morphisms.validate.calls", "count"),
    ("morphisms.validate.self_s", "s"),
    ("morphisms.delta.self_s", "s"),
    ("morphisms.triple_cache.hits", "count"),
    ("morphisms.triple_cache.misses", "count"),
    ("deformations.residual.self_s", "s"),
    ("deformations.obstruction.self_s", "s"),
    ("deformations.extend.self_s", "s"),
    ("deformations.transform.self_s", "s"),
    ("cli.self_s", "s"),
)


def matrix_facts(m) -> dict:
    """Shape, nonzero count and largest numerator/denominator bit length.

    Rows may be sequences or {column: value} dicts; an object without
    integer ``rows``/``cols`` gives no facts.
    """
    rows, cols = getattr(m, "rows", None), getattr(m, "cols", None)
    if not isinstance(rows, int) or not isinstance(cols, int):
        return {}
    nnz = 0
    bits = 0
    for row in getattr(m, "data", ()):
        for x in row.values() if isinstance(row, dict) else row:
            if x:
                nnz += 1
                if isinstance(x, Fraction):
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                else:
                    b = int(x).bit_length()
                if b > bits:
                    bits = b
    return {"cells": rows * cols, "nnz": nnz, "max_bits": bits}


def _resolve(spec: str):
    """(owner, attribute name, current value) for "module:Class.attr"."""
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, facts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _facts(self, idx: int, compute) -> None:
        """Attach facts to span ``idx``, timed as a ``trace`` span of its parent.

        Facts are optional: a value of a shape the tracer does not know
        gives none, and never an error in the traced program.
        """
        t = self._open("trace")
        try:
            self.spans[idx][4] = compute()
        except (AttributeError, TypeError, ValueError):
            self.spans[idx][4] = {}
        finally:
            self._close(t)

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, spec: str, func):
        tracer = self

        if spec.endswith(":Matrix.mul"):
            @functools.wraps(func)
            def wrapper(a, b):
                ddcheck = tracer._current() == DDCHECK_PARENT
                idx = tracer._open("cochains.ddcheck" if ddcheck else name)
                try:
                    return func(a, b)
                finally:
                    tracer._close(idx)
                    if ddcheck:
                        tracer._facts(idx, lambda: {"cells": a.rows * a.cols + b.rows * b.cols})
            return wrapper

        if name in ("linalg.elim", "cochains.assemble"):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    tracer._close(idx)
                    subject = args[0] if name == "linalg.elim" else result
                    if subject is not None:
                        tracer._facts(idx, lambda: matrix_facts(subject))
            return wrapper

        if name == "algebra.validate":
            @functools.wraps(func)
            def wrapper(alg, *args, **kwargs):
                idx = tracer._open(name)
                try:
                    return func(alg, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer._facts(idx, lambda: {"subject": hash(alg)})
            return wrapper

        if name == "jsonio.render" and spec.endswith(":dump_json"):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                text = ""
                try:
                    text = func(*args, **kwargs)
                    return text
                finally:
                    tracer._close(idx)
                    tracer.spans[idx][4] = {"bytes": len(text) if isinstance(text, str) else 0}
            return wrapper

        if name == "morphisms.triple_complex" and hasattr(func, "cache_info"):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                before = func.cache_info()
                idx = tracer._open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    after = func.cache_info()
                    tracer.spans[idx][4] = {
                        "hits": after.hits - before.hits,
                        "misses": after.misses - before.misses,
                    }
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def install(self) -> None:
        for name, spec in TARGETS:
            try:
                owner, attr, original = _resolve(spec)
            except (ImportError, AttributeError):
                self.missing.append(spec)
                continue
            if isinstance(original, functools.cached_property):
                self._undo.append((original, "func", original.func))
                original.func = self._wrap(name, spec, original.func)
                continue
            wrapper = self._wrap(name, spec, original)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "nliecoh" or mod_name.startswith("nliecoh.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (see ``METRICS``) from one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idxs(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(selfs[i] for i in idxs(name))

    def calls(name):
        # outermost calls only: a load that loads a referenced file counts once
        return sum(1 for i in idxs(name) if spans[i][3] < 0 or spans[spans[i][3]][0] != name)

    def fact_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idxs(name))

    def fact_max(name, key):
        return max(((spans[i][4] or {}).get(key, 0) for i in idxs(name)), default=0)

    validate_calls = calls("algebra.validate")
    distinct = {(spans[i][4] or {}).get("subject") for i in idxs("algebra.validate")}
    out = {
        "jsonio.load.calls": calls("jsonio.load"),
        "jsonio.load.self_s": self_s("jsonio.load"),
        "jsonio.render.self_s": self_s("jsonio.render"),
        "jsonio.render.bytes": fact_sum("jsonio.render", "bytes"),
        "algebra.validate.calls": validate_calls,
        "algebra.validate.self_s": self_s("algebra.validate"),
        "algebra.validate.useful_ratio": len(distinct) / validate_calls if validate_calls else 0.0,
        "cochains.enumerate.self_s": self_s("cochains.enumerate"),
        "cochains.assemble.calls": calls("cochains.assemble"),
        "cochains.assemble.self_s": self_s("cochains.assemble"),
        "cochains.assemble.cells": fact_sum("cochains.assemble", "cells"),
        "cochains.assemble.nnz": fact_sum("cochains.assemble", "nnz"),
        "cochains.ddcheck.self_s": self_s("cochains.ddcheck"),
        "cochains.ddcheck.cells": fact_sum("cochains.ddcheck", "cells"),
        "linalg.elim.calls": calls("linalg.elim"),
        "linalg.elim.self_s": self_s("linalg.elim"),
        "linalg.elim.cells": fact_sum("linalg.elim", "cells"),
        "linalg.elim.nnz": fact_sum("linalg.elim", "nnz"),
        "linalg.elim.max_bits": fact_max("linalg.elim", "max_bits"),
        "linalg.quotient.self_s": self_s("linalg.quotient"),
        "morphisms.validate.calls": calls("morphisms.validate"),
        "morphisms.validate.self_s": self_s("morphisms.validate"),
        "morphisms.delta.self_s": self_s("morphisms.delta"),
        "morphisms.triple_cache.hits": fact_sum("morphisms.triple_complex", "hits"),
        "morphisms.triple_cache.misses": fact_sum("morphisms.triple_complex", "misses"),
        "deformations.residual.self_s": self_s("deformations.residual"),
        "deformations.obstruction.self_s": self_s("deformations.obstruction"),
        "deformations.extend.self_s": self_s("deformations.extend"),
        "deformations.transform.self_s": self_s("deformations.transform"),
        "cli.self_s": self_s("cli"),
    }
    assert list(out) == [name for name, _ in METRICS]
    return out
