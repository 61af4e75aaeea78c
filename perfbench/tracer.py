"""Per-layer tracing of statesum3d, installed from outside the package.

A layer is a module of ``statesum3d``.  ``Tracer.install`` replaces every
public function of the layer modules (each plain function named in a
module's ``__all__``), the constructor of ``graphcalc.PairingData`` and the
arithmetic operators of ``exactnum.FieldElement`` with wrappers that time
them.  Every module global that holds one of the replaced functions is
rebound too, so calls through names imported with ``from ... import`` are
seen: ``statesum`` calls ``evaluate_graph``, ``enumerate_labelings`` and
``gauge_orbits`` that way, and ``hqft`` calls ``evaluate_graph``.
``uninstall`` puts the originals back.

Each wrapped call is a span with a parent span and a request id (one
request per CLI command).  Spans stay in memory and are written out by
``write``.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.  Field
operations and the functions in ``AGGREGATED`` run hundreds of thousands
of times per pass, so they are counted and timed but not kept as
individual spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("exactnum", "catdata", "linalg", "graphcalc", "complexes", "gauge",
          "statesum", "hqft", "cli")

AGGREGATED = frozenset({"graphcalc.hom_dim", "graphcalc.tree_paths",
                        "gauge.gauge_act", "gauge.labeling_valid"})

FIELD_OPS = {"__mul__": "mul", "__add__": "add", "__sub__": "sub",
             "__neg__": "neg", "inv": "inv"}


class Tracer:
    """Spans, call counts, inclusive and self times of one traced pass."""

    def __init__(self):
        self.spans = []   # (id, parent id, request id, name, start s, end s)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)   # per name, outermost calls only
        self.self_time = defaultdict(float)   # per layer
        self.counters = defaultdict(int)
        self.max_coeff_bits = 0
        self.request = 0
        self._stack = [[0, "", 0.0]]          # frames: [span id, name, child time]
        self._active = defaultdict(int)
        self._next_id = 1
        self._restore = []
        self.t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def _hooks(self):
        def closed_invariant(parent_name, args, result):
            sk = args[0]
            c = self.counters
            c["colorings_visited"] += result.colorings_visited
            c["colorings_admissible"] += result.colorings_admissible
            c["link_slots"] += result.colorings_admissible * sk.nvertices()
            c["gram_slots"] += result.colorings_admissible * len(sk.edges)

        def count_len(counter):
            def hook(parent_name, args, result):
                self.counters[counter] += len(result)
            return hook

        def count_from_statesum(counter):
            def hook(parent_name, args, result):
                if parent_name.startswith("statesum."):
                    self.counters[counter] += 1
            return hook

        return {
            "statesum.closed_invariant": closed_invariant,
            "graphcalc.evaluate_graph": count_from_statesum("links_from_statesum"),
            "graphcalc.PairingData": count_from_statesum("pairings_from_statesum"),
            "gauge.enumerate_labelings": count_len("labelings"),
            "gauge.gauge_orbits": count_len("orbits"),
        }

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = {layer: importlib.import_module(f"statesum3d.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "statesum3d" or modname.startswith("statesum3d."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(mod, attr, wrappers[value])
        pairing = modules["graphcalc"].PairingData
        self._set(pairing, "__init__", self._wrap("graphcalc.PairingData", pairing.__init__,
                                                  hooks["graphcalc.PairingData"]))
        element = modules["exactnum"].FieldElement
        for attr, kind in FIELD_OPS.items():
            self._set(element, attr, self._wrap_op(f"exactnum.{kind}", getattr(element, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn, hook):
        layer = name.split(".", 1)[0]
        keep = name not in AGGREGATED
        stack, active, perf = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                parent[2] += duration
                self.self_time[layer] += duration - frame[2]
                self.calls[name] += 1
                if not active[name]:
                    self.inclusive[name] += duration
                if keep:
                    self.spans.append((span_id, parent[0], self.request, name,
                                       start - self.t0, end - self.t0))
            if hook is not None:
                hook(parent[1], args, result)
            return result

        return wrapper

    def _wrap_op(self, name, fn):
        """Field operations call no other traced function, so they are
        leaves: their time is charged to the enclosing span as child time."""
        stack, perf = self._stack, time.perf_counter
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def op(*args):
            start = perf()
            try:
                result = fn(*args)
            finally:
                duration = perf() - start
                stack[-1][2] += duration
                self_time["exactnum"] += duration
                calls[name] += 1
                inclusive[name] += duration
            for c in result.coeffs:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
            return result

        return op

    # -- results -------------------------------------------------------------

    def metrics(self, traced_solve_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics of the traced pass, as {name: (value, unit)}.
        ``overhead_ratio`` is the traced pass time over the untraced one."""
        calls, inc, c = self.calls, self.inclusive, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "exactnum.mul_calls": (calls["exactnum.mul"], "count"),
            "exactnum.add_calls": (calls["exactnum.add"], "count"),
            "exactnum.sub_calls": (calls["exactnum.sub"], "count"),
            "exactnum.inv_calls": (calls["exactnum.inv"], "count"),
            "exactnum.mul_s": (inc["exactnum.mul"], "s"),
            "exactnum.max_coeff_bits": (self.max_coeff_bits, "bit"),
            "statesum.closed_invariant_calls": (calls["statesum.closed_invariant"], "count"),
            "statesum.closed_invariant_s": (inc["statesum.closed_invariant"], "s"),
            "statesum.colorings_visited": (c["colorings_visited"], "count"),
            "statesum.colorings_admissible": (c["colorings_admissible"], "count"),
            "statesum.admissible_ratio": (
                ratio(c["colorings_admissible"], c["colorings_visited"]), "ratio"),
            "graphcalc.evaluate_graph_calls": (calls["graphcalc.evaluate_graph"], "count"),
            "graphcalc.evaluate_graph_s": (inc["graphcalc.evaluate_graph"], "s"),
            "graphcalc.rotation_matrix_calls": (calls["graphcalc.rotation_matrix"], "count"),
            "graphcalc.rotation_matrix_s": (inc["graphcalc.rotation_matrix"], "s"),
            "graphcalc.pairing_calls": (calls["graphcalc.PairingData"], "count"),
            "graphcalc.pairing_s": (inc["graphcalc.PairingData"], "s"),
            "graphcalc.link_cache_hit_ratio": (
                1 - ratio(c["links_from_statesum"], c["link_slots"]) if c["link_slots"] else 0.0,
                "ratio"),
            "graphcalc.gram_cache_hit_ratio": (
                1 - ratio(c["pairings_from_statesum"], c["gram_slots"]) if c["gram_slots"] else 0.0,
                "ratio"),
            "gauge.enumerate_labelings_s": (inc["gauge.enumerate_labelings"], "s"),
            "gauge.labelings": (c["labelings"], "count"),
            "gauge.gauge_orbits_s": (inc["gauge.gauge_orbits"], "s"),
            "gauge.orbits": (c["orbits"], "count"),
            "gauge.labelings_per_orbit": (ratio(c["labelings"], c["orbits"]), "ratio"),
            "hqft.cylinder_projector_calls": (calls["hqft.cylinder_projector"], "count"),
            "hqft.cylinder_projector_s": (inc["hqft.cylinder_projector"], "s"),
            "hqft.relative_invariant_calls": (calls["hqft.relative_invariant"], "count"),
            "hqft.relative_invariant_s": (inc["hqft.relative_invariant"], "s"),
            "linalg.matrix_inverse_calls": (calls["linalg.matrix_inverse"], "count"),
            "linalg.matrix_inverse_s": (inc["linalg.matrix_inverse"], "s"),
            "linalg.matrix_mul_s": (inc["linalg.matrix_mul"], "s"),
            "linalg.matrix_rank_s": (inc["linalg.matrix_rank"], "s"),
            "complexes.pachner_s": (inc["complexes.pachner"], "s"),
            "complexes.parse_s": (inc["complexes.parse_triangulation"]
                                  + inc["complexes.parse_skeleton"], "s"),
            "complexes.dual_skeleton_s": (inc["complexes.dual_skeleton"], "s"),
            "catdata.builtin_category_calls": (calls["catdata.builtin_category"], "count"),
            "catdata.builtin_category_s": (inc["catdata.builtin_category"], "s"),
            "cli.run_calls": (calls["cli.run"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        out["trace.solve_s"] = (traced_solve_s, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path):
        """Write the spans as JSON: a field list and one row per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
            fh.write("\n")
