"""Span tracing around the public functions of each mayext layer.

The tracer replaces a function at every place its name is bound: the
defining module and every module that imported it by name (for example
``from .may_core import enumerate_basis``).  Each call records one span
(layer, parent span, start, end) in flat in-memory arrays, plus up to
two work counts taken from the call's arguments or result.  Self time is
computed from the spans afterwards: a span's duration minus the part
covered by its direct children.  Everything runs in one thread, so spans
nest strictly.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# layer -> [(module, attribute)], attribute "Class.method" wraps a method
LAYERS = {
    "may_core.enumerate_basis": [("may_core", "enumerate_basis")],
    "may_core.multiply": [("may_core", "multiply")],
    "may_diff.d1": [("may_diff", "d1")],
    "may_diff.echelon": [("may_diff", "echelon")],
    "may_diff.kernel": [("may_diff", "kernel")],
    "may_diff.cell_homology": [("may_diff", "cell_homology")],
    "adams_certify.certify": [
        ("adams_certify", "certify_ext_vanishing"),
        ("adams_certify", "certify_ext_dim"),
        ("adams_certify", "adams_dr_window"),
        ("cli_runner", "session_vanish"),
        ("cli_runner", "session_dim"),
        ("cli_runner", "session_window"),
    ],
    "les_dims.sphere_table": [("les_dims", "sphere_table")],
    "greek_bp": [
        ("greek_bp", name)
        for name in (
            "beta_admissible",
            "enumerate_beta",
            "alpha_generators",
            "enumerate_ext0_KR",
            "enumerate_ext1_BPK",
            "thom_image",
            "stem_of",
            "parse_index",
        )
    ],
    "cli_runner.session_report": [("cli_runner", "Session.report")],
}
DISPATCH = "cli_runner.dispatch"


def _matrix_shape(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    cols = len(rows[0]) if rows and rows[0] else 0
    return len(rows) * cols, cols


def _kernel_shape(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    dim = args[2] if len(args) > 2 else kwargs["dim"]
    cols = len(rows[0]) if rows and rows[0] else 0
    return dim * cols, cols


# work counts taken at the boundary: layer -> f(args, kwargs, result) -> (n1, n2)
_COUNTS = {
    "may_core.enumerate_basis": lambda args, kwargs, res: (len(res), 0),
    "may_diff.echelon": lambda args, kwargs, res: _matrix_shape(args, kwargs),
    "may_diff.kernel": lambda args, kwargs, res: _kernel_shape(args, kwargs),
    "les_dims.sphere_table": lambda args, kwargs, res: (len(res.cells), 0),
}


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self, targets: dict | None = None):
        self.targets = LAYERS if targets is None else targets
        self.layers = [DISPATCH, *self.targets]
        self.layer_id = {name: k for k, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n1 = array("q")
        self.n2 = array("q")
        self.stack = [-1]
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.n1.append(0)
        self.n2.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of the given layer (used for the root span)."""
        idx = self._open(self.layer_id[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        layer = self.layer_id[name]
        count = _COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.n1[idx], tracer.n2[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "mayext") -> None:
        """Wrap every binding of every traced function in loaded modules."""
        self.wrapped, self.absent = [], []
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for name, targets in self.targets.items():
            for module_name, attr in targets:
                home = sys.modules.get(f"{package}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, method or attr, None) if owner else None
                label = f"{module_name}.{attr}"
                if original is None:
                    self.absent.append(label)
                    continue
                traced = self._wrapper(name, original)
                if owner_name:
                    self._bind(owner, method, traced)
                else:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._bind(mod, key, traced)
                self.wrapped.append(label)

    def _bind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.layer, self.parent, self.start, self.end, self.n1, self.n2):
            del arr[:]
        self.stack = [-1]

    def summary(self) -> dict:
        """Per-layer calls, self time and work counts from the spans."""
        n = len(self.start)
        child = [0.0] * n
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        # "calls" counts entries into a layer from outside it, so that a
        # layer function calling a sibling of the same layer counts once
        outer = [True] * n
        for i in range(n):
            par = parent[i]
            while par >= 0:
                if layer[par] == layer[i]:
                    outer[i] = False
                    break
                par = parent[par]
        stats = {
            name: {"calls": 0, "self_s": 0.0, "n1": 0, "n2_max": 0}
            for name in self.layers
        }
        # a report served without computing cell homology is a hit; a
        # cell_homology call that enumerates a basis computed its cell
        report = self.layer_id["cli_runner.session_report"]
        cell = self.layer_id["may_diff.cell_homology"]
        enum = self.layer_id["may_core.enumerate_basis"]
        computed_reports, computed_cells = set(), set()
        for i in range(n):
            par = parent[i]
            if par >= 0 and (layer[par], layer[i]) == (report, cell):
                computed_reports.add(par)
            elif par >= 0 and (layer[par], layer[i]) == (cell, enum):
                computed_cells.add(par)
        for i in range(n):
            st = stats[self.layers[layer[i]]]
            st["calls"] += outer[i]
            st["self_s"] += (end[i] - start[i]) - child[i]
            st["n1"] += self.n1[i]
            st["n2_max"] = max(st["n2_max"], self.n2[i])
        stats["cli_runner.session_report"]["hits"] = (
            stats["cli_runner.session_report"]["calls"] - len(computed_reports)
        )
        cells = stats["may_diff.cell_homology"]
        cells["computed"] = len(computed_cells)
        calls = cells["calls"]
        cells["memo_hit_ratio"] = (calls - cells["computed"]) / calls if calls else 0.0
        return stats

    def dump(self, path) -> None:
        """Write the spans as JSON columns (times in seconds)."""
        doc = {
            "layers": self.layers,
            "wrapped": self.wrapped,
            "absent": self.absent,
            "columns": ["layer", "parent", "start", "end", "n1", "n2"],
            "layer": list(self.layer),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "n1": list(self.n1),
            "n2": list(self.n2),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# per-layer metric -> (layer, field of Tracer.summary(), unit); n1 is the
# work count summed over calls, n2_max the largest second count
PER_LAYER = {
    "may_core.enumerate_basis.calls": ("may_core.enumerate_basis", "calls", "count"),
    "may_core.enumerate_basis.self_s": ("may_core.enumerate_basis", "self_s", "s"),
    "may_core.enumerate_basis.monomials": ("may_core.enumerate_basis", "n1", "count"),
    "may_core.multiply.calls": ("may_core.multiply", "calls", "count"),
    "may_core.multiply.self_s": ("may_core.multiply", "self_s", "s"),
    "may_diff.d1.calls": ("may_diff.d1", "calls", "count"),
    "may_diff.d1.self_s": ("may_diff.d1", "self_s", "s"),
    "may_diff.echelon.calls": ("may_diff.echelon", "calls", "count"),
    "may_diff.echelon.self_s": ("may_diff.echelon", "self_s", "s"),
    "may_diff.echelon.entries": ("may_diff.echelon", "n1", "count"),
    "may_diff.echelon.max_cols": ("may_diff.echelon", "n2_max", "count"),
    "may_diff.kernel.calls": ("may_diff.kernel", "calls", "count"),
    "may_diff.kernel.self_s": ("may_diff.kernel", "self_s", "s"),
    "may_diff.kernel.entries": ("may_diff.kernel", "n1", "count"),
    "may_diff.cell_homology.calls": ("may_diff.cell_homology", "calls", "count"),
    "may_diff.cell_homology.computed": ("may_diff.cell_homology", "computed", "count"),
    "may_diff.cell_homology.memo_hit_ratio": (
        "may_diff.cell_homology", "memo_hit_ratio", "ratio"
    ),
    "may_diff.cell_homology.self_s": ("may_diff.cell_homology", "self_s", "s"),
    "adams_certify.certify.calls": ("adams_certify.certify", "calls", "count"),
    "adams_certify.certify.self_s": ("adams_certify.certify", "self_s", "s"),
    "les_dims.sphere_table.calls": ("les_dims.sphere_table", "calls", "count"),
    "les_dims.sphere_table.cells": ("les_dims.sphere_table", "n1", "count"),
    "les_dims.sphere_table.self_s": ("les_dims.sphere_table", "self_s", "s"),
    "greek_bp.calls": ("greek_bp", "calls", "count"),
    "greek_bp.self_s": ("greek_bp", "self_s", "s"),
    "cli_runner.session_report.calls": ("cli_runner.session_report", "calls", "count"),
    "cli_runner.session_report.hits": ("cli_runner.session_report", "hits", "count"),
    "cli_runner.dispatch.self_s": (DISPATCH, "self_s", "s"),
}


def per_layer_metrics(stats: dict) -> dict:
    """{metric: (value, unit)} for every PER_LAYER metric."""
    return {
        metric: (stats[layer][field], unit)
        for metric, (layer, field, unit) in PER_LAYER.items()
    }
