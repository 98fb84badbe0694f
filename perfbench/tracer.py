"""Spans around the calls into each hetmod module, installed from outside.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every name that refers to them in any loaded ``hetmod`` module, so
calls through ``from .x import y`` bindings (``cohomology.curvature_array``,
``cohomology.check_heterotic_system`` ...) and calls inside a module are
traced too.  Spans (name, start, end, parent) stay in memory until
``write``; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Dict, List

TARGETS = {
    "models": ("builtin_model", "parse_model_file", "parse_model_text"),
    "geometry": ("chern_connection", "bismut", "curvature_array",
                 "check_heterotic_system"),
    "qcomplex": ("assemble_Dbar", "gram", "gram_adjoint"),
    "linalg": ("rank", "kernel_basis", "inverse", "mat_mul"),
    "cohomology": ("cohomology_data", "injectivity_scan", "symbol_matrix",
                   "serre_report", "cohomology_report", "system_report"),
    "chartlocal": ("trivialization_report", "build_trivialization",
                   "potential_residuals",
                   "cs_transgression_residual", "trivialization_residual",
                   "transition", "transition_holomorphic",
                   "transition_cocycle_residual"),
    "cli": ("main",),
}

# time metric -> span names; a group's time is the wall its outermost spans
# cover, so a call nested in another call of the same group counts once
TIME_GROUPS = {
    "geometry.connections_s": ("geometry.chern_connection", "geometry.bismut",
                               "geometry.curvature_array"),
    "geometry.check_s": ("geometry.check_heterotic_system",),
    "qcomplex.assemble_s": ("qcomplex.assemble_Dbar",),
    "qcomplex.gram_s": ("qcomplex.gram",),
    "qcomplex.adjoint_s": ("qcomplex.gram_adjoint",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.kernel_s": ("linalg.kernel_basis",),
    "linalg.inverse_s": ("linalg.inverse",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "cohomology.symbol_matrix_s": ("cohomology.symbol_matrix",),
    "chartlocal.build_trivialization_s": ("chartlocal.build_trivialization",),
    "chartlocal.transition_s": ("chartlocal.transition",
                                "chartlocal.transition_holomorphic",
                                "chartlocal.transition_cocycle_residual"),
    "chartlocal.checks_s": ("chartlocal.potential_residuals",
                            "chartlocal.cs_transgression_residual"),
    "models.load_s": ("models.builtin_model", "models.parse_model_file",
                      "models.parse_model_text"),
}

# count metric -> span names whose outermost calls are counted
CALL_COUNTS = {
    "qcomplex.assemble_calls": ("qcomplex.assemble_Dbar",),
    "linalg.rank_calls": ("linalg.rank",),
    "linalg.kernel_calls": ("linalg.kernel_basis",),
    "cohomology.symbol_samples": ("cohomology.symbol_matrix",),
    "chartlocal.build_trivialization_calls":
        ("chartlocal.build_trivialization",),
    "chartlocal.sections": ("chartlocal.trivialization_residual",),
    "models.load_calls": ("models.builtin_model", "models.parse_model_file",
                          "models.parse_model_text"),
}

# spans that only assemble a report from layer calls; their self time, like
# that of cli.main, is the part of a pass no layer metric accounts for
REPORT_SPANS = ("cli.main", "cohomology.serre_report",
                "cohomology.cohomology_report", "cohomology.system_report",
                "chartlocal.trivialization_report")

POOL_CAP = 512   # operands kept for the micro-loops


def _matrix_cells(args, kwargs) -> int:
    a = args[0]
    cols = kwargs.get("cols")
    if cols is None and len(args) > 1 and isinstance(args[1], int):
        cols = args[1]   # kernel_basis(a, cols)
    if cols is None:
        cols = len(a[0]) if a else 0
    return len(a) * cols


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, cells]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.cache_calls = 0
        self.cache_hits = 0
        self.gauss_pool: list = []
        self.scalar_pool: list = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = start
                stack.pop()
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result
        return traced

    def _observe_matrix(self, rec, args, kwargs, result) -> None:
        rec[4] = _matrix_cells(args, kwargs)
        if len(self.gauss_pool) < POOL_CAP:
            for row in args[0]:
                self.gauss_pool.extend(x for x in row if x)
            del self.gauss_pool[POOL_CAP:]

    def _observe_operator(self, rec, args, kwargs, result) -> None:
        if len(self.scalar_pool) < POOL_CAP:
            for row in result.entries:
                self.scalar_pool.extend(x for x in row if x)
            del self.scalar_pool[POOL_CAP:]

    def install(self) -> None:
        observers = {
            "linalg.rank": self._observe_matrix,
            "linalg.kernel_basis": self._observe_matrix,
            "linalg.inverse": self._observe_matrix,
            "linalg.mat_mul": self._observe_matrix,
            "qcomplex.assemble_Dbar": self._observe_operator,
        }
        for modname in TARGETS:
            importlib.import_module("hetmod." + modname)
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "hetmod" or key.startswith("hetmod.")]
        for modname, names in TARGETS.items():
            mod = sys.modules["hetmod." + modname]
            for fname in names:
                orig = getattr(mod, fname)
                span = f"{modname}.{fname}"
                wrapped = self._wrap(span, orig, observers.get(span))
                for other in loaded:
                    for attr in [k for k, v in vars(other).items()
                                 if v is orig]:
                        setattr(other, attr, wrapped)
        geometry = sys.modules["hetmod.geometry"]
        cls = geometry.HomogeneousModel
        plain_cached = cls.cached

        def cached(model, key, builder):
            self.cache_calls += 1
            if key in model._cache:
                self.cache_hits += 1
            return plain_cached(model, key, builder)
        cls.cached = cached

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, cells) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "cells": cells}) + "\n")

    def layer_metrics(self, window_start: float, window_end: float
                      ) -> Dict[str, float]:
        """Per-layer numbers for the spans recorded so far; the window is the
        traced pass, the denominator of ``trace.coverage_frac``."""
        spans = self.spans

        def outermost(names):
            """Spans in ``names`` with no ancestor in ``names``."""
            out = []
            for rec in spans:
                if rec[0] not in names:
                    continue
                p = rec[3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    out.append(rec)
            return out

        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]

        def self_time(name):
            return sum(rec[2] - rec[1] - child_time[i]
                       for i, rec in enumerate(spans) if rec[0] == name)

        out: Dict[str, float] = {}
        for metric, names in TIME_GROUPS.items():
            out[metric] = sum(r[2] - r[1] for r in outermost(set(names)))
        for metric, names in CALL_COUNTS.items():
            out[metric] = len(outermost(set(names)))
        for metric, name in (("linalg.rank_cells", "linalg.rank"),
                             ("linalg.kernel_cells", "linalg.kernel_basis")):
            out[metric] = sum(r[4] for r in spans if r[0] == name)

        scan = {i for i, r in enumerate(spans)
                if r[0] == "cohomology.injectivity_scan"}
        per_sample = sum(r[2] - r[1] for r in spans if r[3] in scan and
                         r[0] in ("cohomology.symbol_matrix", "linalg.rank"))
        samples = out["cohomology.symbol_samples"]
        out["cohomology.symbol_sample_ms"] = (
            1e3 * per_sample / samples if samples else 0.0)
        sections = [r[2] - r[1] for r in spans
                    if r[0] == "chartlocal.trivialization_residual"]
        out["chartlocal.section_ms"] = (
            1e3 * sum(sections) / len(sections) if sections else 0.0)
        out["cohomology.data_self_s"] = self_time("cohomology.cohomology_data")
        out["cli.self_s"] = self_time("cli.main")
        out["geometry.cache_hit_frac"] = (
            self.cache_hits / self.cache_calls if self.cache_calls else 0.0)

        unaccounted = sum(self_time(name) for name in REPORT_SPANS)
        out["trace.coverage_frac"] = 1 - unaccounted / (window_end
                                                        - window_start)
        return out
