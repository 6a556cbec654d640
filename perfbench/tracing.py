"""Tracing from outside the program: wrap the public functions of each layer.

Coarse boundaries (stage checks, `build_calculus`, growth, linear algebra)
record one span per call: name, start, end, parent span and operation id.
Hot boundaries run 10^5 to 10^6 times a pass, so they record only a call
count and self time.  Both kinds share one stack, so a boundary's self time
is its duration minus the time of the wrapped calls inside it.

A wrapper replaces the function at every place spbw binds it (the defining
module, each module that imported it by name, the package namespace), and
installing checks that no binding of an original is left.
"""

from __future__ import annotations

import sys
import time

# (metric name, module, class or None, attribute)
HOT = (
    ("calculus.d0", "spbw.calculus", "Calculus", "d0"),
    ("calculus.differential", "spbw.calculus", "Calculus", "differential"),
    ("calculus.wedge", "spbw.calculus", "Calculus", "wedge"),
    ("calculus.left_multiply", "spbw.calculus", "Calculus", "left_multiply"),
    ("extended.apply", "spbw.extended", "AlgebraEndo", "apply"),
    ("core.multiply", "spbw.core", "Presentation", "multiply"),
    ("core.normalize", "spbw.core", "Presentation", "normalize"),
    ("coefficients.mul", "spbw.coefficients", "CoeffPoly", "__mul__"),
    ("coefficients.apply_endo", "spbw.coefficients", None, "apply_endo"),
    ("coefficients.apply_sder", "spbw.coefficients", None, "apply_sder"),
    ("scalars.mul", "spbw.scalars", "Scalar", "__mul__"),
    ("scalars.add", "spbw.scalars", "Scalar", "__add__"),
    ("scalars.eq", "spbw.scalars", "Scalar", "__eq__"),
    ("scalars.inverse", "spbw.scalars", "Scalar", "inverse"),
    ("dsl.parse_presentation", "spbw.dsl", None, "parse_presentation"),
    ("dsl.build_presentation", "spbw.dsl", None, "build_presentation"),
)
SPANS = (
    ("calculus.build_calculus", "spbw.calculus", None, "build_calculus"),
    ("core.pbw_consistency_check", "spbw.core", "Presentation", "pbw_consistency_check"),
    ("extended.hypothesis_check", "spbw.extended", None, "hypothesis_check"),
    ("calculus.d_squared_check", "spbw.calculus", "Calculus", "d_squared_check"),
    ("calculus.connectedness_check", "spbw.calculus", "Calculus", "connectedness_check"),
    ("calculus.volume", "spbw.calculus", "Calculus", "volume"),
    ("calculus.integrability_check", "spbw.calculus", "Calculus", "integrability_check"),
    ("calculus.divergence_leibniz_check", "spbw.calculus", "Calculus", "divergence_leibniz_check"),
    ("calculus.flatness_check", "spbw.calculus", "Calculus", "flatness_check"),
    ("gkdim.filtration_dims", "spbw.gkdim", None, "filtration_dims"),
    ("gkdim.gk_estimate", "spbw.gkdim", None, "gk_estimate"),
    ("linalg.kernel_basis", "spbw.linalg", None, "kernel_basis"),
    ("linalg.solve", "spbw.linalg", None, "solve"),
)


# Third counter of a boundary, from its arguments and result.
def _terms_out(args, result):
    return len(result.terms)


def _rational_pair(args, result):
    a, b = args
    return a.nparams == 0 or (a.is_rational() and b.is_rational())


def _cells(args, result):
    return len(args[0]) * args[1]


EXTRA = {"core.multiply": _terms_out, "scalars.mul": _rational_pair, "linalg.kernel_basis": _cells}


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Counts, self times and spans of one traced pass.  Use as a context
    manager: entering patches spbw, leaving restores it."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in HOT + SPANS}
        self.spans = []
        self.op = None
        self._children = [0.0]  # time of the wrapped calls inside each open call; bottom is a sentinel
        self._open_spans = [None]
        self._patched = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------------

    def _hot(self, name, fn):
        stat, children, clock, extra = self.stats[name], self._children, time.perf_counter, EXTRA.get(name)

        def wrapper(*args):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args)
            finally:
                duration = clock() - start
                inner = children.pop()
                children[-1] += duration
                stat.calls += 1
                stat.self_s += duration - inner
            if extra is not None:
                stat.extra += extra(args, result)
            return result

        return wrapper

    def span(self, name, fn):
        """`fn` wrapped to record one span per call (and a count and self time
        when `name` is a boundary of SPANS)."""
        stat, children, clock, extra = self.stats.get(name), self._children, time.perf_counter, EXTRA.get(name)

        def wrapper(*args):
            record = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                      "parent": self._open_spans[-1], "op": self.op}
            self.spans.append(record)
            self._open_spans.append(record["id"])
            children.append(0.0)
            record["start"] = start = clock()
            try:
                result = fn(*args)
            finally:
                record["end"] = end = clock()
                duration = end - start
                inner = children.pop()
                children[-1] += duration
                self._open_spans.pop()
                if stat is not None:
                    stat.calls += 1
                    stat.self_s += duration - inner
            if extra is not None:
                stat.extra += extra(args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------------

    def __enter__(self):
        modules = _spbw_modules()
        for kind, table in ((self._hot, HOT), (self.span, SPANS)):
            for name, modname, clsname, attr in table:
                owner = sys.modules[modname]
                if clsname is not None:
                    owner = getattr(owner, clsname)
                original = owner.__dict__[attr]
                wrapper = kind(name, original)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if clsname is None:  # module function: rebind every import site
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, key, original))
                                setattr(mod, key, wrapper)
        left = _bindings(modules, {id(orig) for _, _, orig in self._patched})
        if left:
            self.__exit__(None, None, None)
            raise RuntimeError(f"unpatched bindings of traced functions: {left}")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counters: `<name>.calls` and `<name>.self_s` for every
        boundary, plus the three derived counters."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
        out["core.multiply.terms_out"] = self.stats["core.multiply"].extra
        mul = self.stats["scalars.mul"]
        out["scalars.mul.rational_share"] = mul.extra / mul.calls if mul.calls else 0.0
        out["linalg.kernel_basis.cells"] = self.stats["linalg.kernel_basis"].extra
        return out


def _spbw_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "spbw" or name.startswith("spbw.")]


def _bindings(modules, ids) -> list:
    """Names in spbw modules and in the classes they define that still
    reference one of the objects in `ids`."""
    found = []
    for mod in modules:
        for key, value in vars(mod).items():
            if id(value) in ids:
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{a}" for a, v in vars(value).items() if id(v) in ids]
    return found
