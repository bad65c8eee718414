"""In-memory span recording around ``teichmuller`` functions, for traced runs only.

``install`` replaces each listed function at every place it is bound (its
module, every ``teichmuller`` module or benchmark module that imported it by
name, and the class for methods) with a wrapper that records one span per
call: name, start, end and parent span.  Nothing under ``src/`` is edited; the
untraced process never imports this module's wrappers.

Per-layer metrics are named ``<module>.<function>.<stat>``: ``calls`` and
``self_s`` for every traced function, plus the counters listed in ``COUNTERS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

# (module, qualified name) of every traced function, grouped by layer.
TRACED = [
    ("modlinalg", "diagonalize_mod"),
    ("modlinalg", "kernel_mod"),
    ("modlinalg", "cokernel_mod"),
    ("modlinalg", "solve_matrix_mod"),
    ("modlinalg", "inverse_mod"),
    ("modlinalg", "invertible_mod"),
    ("exact_linalg", "abelian_quotient"),
    ("gmod_cohomology", "cohomology"),
    ("gmod_cohomology", "map_on_cohomology"),
    ("gmod_cohomology", "is_cocycle"),
    ("gmod_cohomology", "CohomologyGroup.class_of"),
    ("gmod_cohomology", "CohomologyGroup.lift"),
    ("groups", "FiniteGroup.from_table"),
    ("groups", "GroupHom.is_valid"),
    ("groups", "group_from_2cocycle"),
    ("groups", "is_two_cocycle"),
    ("groups", "abelian_structure"),
    ("crossed", "cocycle_of_crossed2"),
    ("crossed", "Crossed2Extension.validate"),
    ("crossed_pairs", "xpext_enumerate"),
    ("crossed_pairs", "aut_g_of_e"),
    ("crossed_pairs", "find_congruence"),
    ("crossed_pairs", "j_map"),
    ("crossed_pairs", "delta"),
    ("crossed_pairs", "crossed_pair_structures"),
    ("crossed_pairs", "class_is_q_fixed"),
    ("crossed_pairs", "Ambient.gmodule"),
    ("crossed_pairs", "metacyclic_instance"),
    ("crossed_pairs", "crossed_pair_algebra"),
    ("finrings", "units_group"),
    ("finrings", "find_conjugator"),
    ("finrings", "frobenius_lift"),
    ("finrings", "fixed_subring"),
    ("normal_algebras", "crossed_product"),
    ("normal_algebras", "CrossedProductSpec.validate"),
    ("normal_algebras", "teichmuller_cocycle"),
    ("normal_algebras", "unit_module"),
]

# counter name -> (unit, better); counted by the hooks below.
COUNTERS = {
    "modlinalg.diagonalize_mod.cells": ("count", "lower"),
    "modlinalg.diagonalize_mod.nnz": ("count", "lower"),
    "modlinalg.diagonalize_mod.max_cells": ("count", "lower"),
    "gmod_cohomology.cohomology.repeat_calls": ("count", "lower"),
    "groups.is_two_cocycle.accepted": ("count", "higher"),
    "groups.abelian_structure.repeat_calls": ("count", "lower"),
    "crossed_pairs.aut_g_of_e.candidates": ("count", "lower"),
    "crossed_pairs.aut_g_of_e.accepted": ("count", "higher"),
    "crossed_pairs.find_congruence.found": ("count", "higher"),
    "crossed_pairs.Ambient.gmodule.repeat_calls": ("count", "lower"),
}


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, better), in a fixed order."""
    out = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    out["trace.overhead_frac"] = ("ratio", "lower")
    out["trace.coverage_frac"] = ("ratio", "higher")
    out["wall_s"] = ("s", "lower")
    out["query_p50_ms"] = ("ms", "lower")
    out["query_p90_ms"] = ("ms", "lower")
    out["fail_frac"] = ("ratio", "lower")
    return out


@dataclass
class Recorder:
    """Spans as (name index, start, end, parent index); parent -1 is top level."""

    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)     # repeat detection per counter
    stack: list = field(default_factory=list)

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def repeat(self, name: str, key) -> None:
        """Count ``name`` when ``key`` was already seen since the last reset."""
        keys = self.seen.setdefault(name, set())
        if key in keys:
            self.count(name)
        else:
            keys.add(key)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.seen.clear()

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self.name_index(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(names: list, spans: list, counters: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (every traced name, zero when unused)."""
    out = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for (nid, _, _, _), own in zip(spans, self_times(spans)):
        name = names[nid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["trace.coverage_frac"] = top / wall_s if wall_s > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result

def _diagonalize_hook(rec: Recorder, args, kwargs, result) -> None:
    import numpy as np
    A, m = np.asarray(args[0]), args[1]
    A = A.reshape(1, -1) if A.ndim == 1 else A
    cells = int(A.shape[0] * A.shape[1])
    rec.count("modlinalg.diagonalize_mod.cells", cells)
    rec.count("modlinalg.diagonalize_mod.nnz", int(np.count_nonzero(np.mod(A, m))))
    best = rec.counters.get("modlinalg.diagonalize_mod.max_cells", 0)
    rec.counters["modlinalg.diagonalize_mod.max_cells"] = max(best, cells)


def _cohomology_hook(rec: Recorder, args, kwargs, result) -> None:
    G, M, n = args[:3]
    rec.repeat("gmod_cohomology.cohomology.repeat_calls",
               (G.mul, M.invariant_factors, M.action, n))


def _is_two_cocycle_hook(rec: Recorder, args, kwargs, result) -> None:
    if result is None:
        rec.count("groups.is_two_cocycle.accepted")


def _abelian_structure_hook(rec: Recorder, args, kwargs, result) -> None:
    rec.repeat("groups.abelian_structure.repeat_calls", args[0].mul)


def _aut_g_of_e_hook(rec: Recorder, args, kwargs, result) -> None:
    amb = args[0].ambient
    rec.count("crossed_pairs.aut_g_of_e.candidates",
              amb.G.order * amb.Mgrp.order ** (amb.N.order - 1))
    rec.count("crossed_pairs.aut_g_of_e.accepted", len(result.pairs))


def _find_congruence_hook(rec: Recorder, args, kwargs, result) -> None:
    if result is not None:
        rec.count("crossed_pairs.find_congruence.found")


def _gmodule_hook(rec: Recorder, args, kwargs, result) -> None:
    amb = args[0]
    rec.repeat("crossed_pairs.Ambient.gmodule.repeat_calls",
               (amb.ext.middle.mul, amb.ext.kernel_hom.images, amb.Mgrp.mul, amb.action.table))


HOOKS = {
    "modlinalg.diagonalize_mod": _diagonalize_hook,
    "gmod_cohomology.cohomology": _cohomology_hook,
    "groups.is_two_cocycle": _is_two_cocycle_hook,
    "groups.abelian_structure": _abelian_structure_hook,
    "crossed_pairs.aut_g_of_e": _aut_g_of_e_hook,
    "crossed_pairs.find_congruence": _find_congruence_hook,
    "crossed_pairs.Ambient.gmodule": _gmodule_hook,
}


def install(rec: Recorder, extra_modules=()) -> None:
    """Wrap every TRACED function wherever ``teichmuller`` or ``extra_modules`` bind it."""
    import importlib
    import sys

    for module, _ in TRACED:
        importlib.import_module(f"teichmuller.{module}")
    holders = [mod for name, mod in list(sys.modules.items())
               if name == "teichmuller" or name.startswith("teichmuller.")]
    holders.extend(extra_modules)
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        mod = sys.modules[f"teichmuller.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(rec.wrap(name, raw.__func__, HOOKS.get(name))))
            else:
                setattr(cls, attr, rec.wrap(name, raw, HOOKS.get(name)))
            continue
        original = getattr(mod, qualname)
        traced = rec.wrap(name, original, HOOKS.get(name))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, traced)
