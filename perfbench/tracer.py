"""Per-layer tracing by wrapping package functions from outside.

``Tracer.installed()`` replaces module attributes of ``wcetbound`` with
wrappers and puts the originals back on exit.  A *span* wrapper records
(id, parent id, name, layer, item, start, end) in memory; a *count*
wrapper only counts calls, for functions called millions of times.  A
call is caught only when it goes through the patched attribute, which is
why the plan names the module each call site looks the function up in.

An attribute that no longer exists (a later version removed it) is skipped
and listed in ``absent``; the metrics that need it are left out of the
report instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, kind, span name, layer).  The layer is the module
# whose code the span runs; its self time is charged there.  Cache steps
# and step costs run inside explorer and refinement code and are counted,
# not timed.
PLAN = (
    ("cli", "main", "span", "cli.main", "cli"),
    ("cli", "is_feasible_from_some_state", "span", "cli.recheck", "refinement"),
    ("cli", "parse_program", "span", "program.parse", "program"),
    ("explorer", "ensure_bounded", "span", "program.ensure_bounded", "program"),
    ("cli", "explore_explicit", "span", "explorer.explicit", "explorer"),
    ("refinement", "explore_abstract", "span", "explorer.abstract", "explorer"),
    ("cli", "run_refinement", "span", "refinement.run", "refinement"),
    ("refinement", "is_feasible_from_some_state", "span", "refinement.feasibility", "refinement"),
    ("cli", "infeasible_core", "span", "refinement.core", "refinement"),
    ("refinement", "infeasible_core", "span", "refinement.core", "refinement"),
    ("refinement", "subtract", "span", "classifier.update", "classifier"),
    ("classifier", "intersect", "span", "classifier.intersect", "classifier"),
    ("classifier", "minimize", "span", "classifier.minimize", "classifier"),
    ("explorer", "access", "count", "cache.access_calls.explore", None),
    ("refinement", "access", "count", "cache.access_calls.feasibility", None),
    ("explorer", "step_cost", "count", "timing.step_cost_calls", None),
    ("refinement", "candidate_initial_states", "yields", "refinement.candidates_tried", None),
)
LAYERS = ("cli", "program", "explorer", "refinement", "classifier")

# Per-layer metrics: name -> (unit, better, the PLAN attributes it needs).
METRICS = {
    "cli.self_s": ("s", "lower", [("cli", "main")]),
    "cli.report_bytes": ("bytes", "lower", []),
    "cli.recheck_s": ("s", "lower", [("cli", "is_feasible_from_some_state")]),
    "program.parse_s": ("s", "lower", [("cli", "parse_program")]),
    "program.ensure_bounded_calls": ("count", "lower", [("explorer", "ensure_bounded")]),
    "program.ensure_bounded_s": ("s", "lower", [("explorer", "ensure_bounded")]),
    "explorer.explicit_s": ("s", "lower", [("cli", "explore_explicit")]),
    "explorer.states_explored": ("count", "lower", [("cli", "explore_explicit")]),
    "explorer.witness_steps": ("count", "lower", [("cli", "explore_explicit")]),
    "explorer.abstract_s": ("s", "lower", [("refinement", "explore_abstract")]),
    "explorer.abstract_calls": ("count", "lower", [("refinement", "explore_abstract")]),
    "cache.access_calls.explore": ("count", "lower", [("explorer", "access")]),
    "cache.access_calls.feasibility": ("count", "lower", [("refinement", "access")]),
    "timing.step_cost_calls": ("count", "lower", [("explorer", "step_cost")]),
    "refinement.iterations": ("count", "lower", [("cli", "run_refinement")]),
    "refinement.feasibility_s": ("s", "lower", [("cli", "run_refinement"), ("refinement", "is_feasible_from_some_state")]),
    "refinement.feasibility_calls": ("count", "lower", [("cli", "run_refinement"), ("refinement", "is_feasible_from_some_state")]),
    "refinement.core_s": ("s", "lower", [("refinement", "infeasible_core")]),
    "refinement.core_probes": ("count", "lower", [("refinement", "infeasible_core"), ("refinement", "is_feasible_from_some_state")]),
    "refinement.core_len_max": ("count", "lower", [("refinement", "infeasible_core")]),
    "refinement.candidates_tried": ("count", "lower", [("refinement", "candidate_initial_states")]),
    "refinement.realize_ratio": ("ratio", "higher", [("refinement", "candidate_initial_states"), ("refinement", "is_feasible_from_some_state")]),
    "classifier.update_s": ("s", "lower", [("refinement", "subtract")]),
    "classifier.intersect_s": ("s", "lower", [("classifier", "intersect")]),
    "classifier.minimize_s": ("s", "lower", [("classifier", "minimize")]),
    "classifier.product_states": ("count", "lower", [("classifier", "intersect")]),
    "classifier.model_states_final": ("count", "lower", [("cli", "run_refinement")]),
    **{f"{layer}.self_s": ("s", "lower", []) for layer in LAYERS[1:]},
    "trace.wall_s": ("s", "lower", []),
    "trace.spans": ("count", "lower", []),
    "trace.attributed_ratio": ("ratio", "higher", []),
    "trace.overhead_ratio": ("ratio", "lower", []),
}


class Tracer:
    def __init__(self, modules):
        """``modules`` maps the short names used in PLAN to module objects."""
        self.modules = modules
        self.spans: list[tuple] = []  # (id, parent, name, layer, item, start, end)
        self.counts: Counter = Counter()
        self.absent: set[tuple[str, str]] = set()
        self.item = -1
        self.core_len_max = 0
        self._stack: list[int] = []
        self._names: list[str] = []  # span id -> name

    def _span(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self._names)
            self._names.append(name)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, layer, self.item, start, end))
            self._observe(name, parent, result)
            return result
        return wrapper

    def _observe(self, name, parent, result):
        """Counts read off the result of a finished span."""
        c = self.counts
        parent_name = None if parent is None else self._names[parent]
        if name == "explorer.explicit":
            c["explorer.states_explored"] += result.states_explored
            c["explorer.witness_steps"] += len(result.witness)
        elif name == "refinement.run":
            c["refinement.iterations"] += len(result.log)
            c["classifier.model_states_final"] += result.log[-1].model_states
        elif name in ("refinement.feasibility", "cli.recheck"):
            c["feasible_verdicts"] += bool(result.feasible)
            if name == "refinement.feasibility" and parent_name == "refinement.core":
                c["refinement.core_probes"] += 1
            elif name == "refinement.feasibility" and parent_name == "refinement.run":
                c["refinement.feasibility_calls"] += 1
        elif name == "refinement.core":
            self.core_len_max = max(self.core_len_max, len(result))
        elif name == "classifier.intersect":
            c["classifier.product_states"] += result.n_states

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yields(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[name] += 1
                yield value
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, kind, name, layer in PLAN:
                module = self.modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add((mod_name, attr))
                    continue
                if kind == "span":
                    wrapper = self._span(fn, name, layer)
                elif kind == "count":
                    wrapper = self._count(fn, name)
                else:
                    wrapper = self._yields(fn, name)
                saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children.
        Calls nest and run on one thread, so children never overlap."""
        own = {sid: end - start for sid, _, _, _, _, start, end in self.spans}
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self, wall_s: float, untraced_s: float, report_bytes: int) -> dict:
        """Per-layer metrics for everything traced so far; see METRICS."""
        own = self.self_times()
        total = defaultdict(float)
        calls = Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        feas_s = 0.0
        for sid, parent, name, layer, _, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            layer_self[layer] += own[sid]
            if name == "refinement.feasibility" and parent is not None \
                    and self._names[parent] == "refinement.run":
                feas_s += end - start
        c = self.counts
        values = {
            "cli.self_s": layer_self["cli"],
            "cli.report_bytes": report_bytes,
            "cli.recheck_s": total["cli.recheck"],
            "program.parse_s": total["program.parse"],
            "program.ensure_bounded_calls": calls["program.ensure_bounded"],
            "program.ensure_bounded_s": total["program.ensure_bounded"],
            "explorer.explicit_s": total["explorer.explicit"],
            "explorer.states_explored": c["explorer.states_explored"],
            "explorer.witness_steps": c["explorer.witness_steps"],
            "explorer.abstract_s": total["explorer.abstract"],
            "explorer.abstract_calls": calls["explorer.abstract"],
            "cache.access_calls.explore": c["cache.access_calls.explore"],
            "cache.access_calls.feasibility": c["cache.access_calls.feasibility"],
            "timing.step_cost_calls": c["timing.step_cost_calls"],
            "refinement.iterations": c["refinement.iterations"],
            "refinement.feasibility_s": feas_s,
            "refinement.feasibility_calls": c["refinement.feasibility_calls"],
            "refinement.core_s": total["refinement.core"],
            "refinement.core_probes": c["refinement.core_probes"],
            "refinement.core_len_max": self.core_len_max,
            "refinement.candidates_tried": c["refinement.candidates_tried"],
            "refinement.realize_ratio": (
                c["feasible_verdicts"] / c["refinement.candidates_tried"]
                if c["refinement.candidates_tried"] else 0.0
            ),
            "classifier.update_s": total["classifier.update"],
            "classifier.intersect_s": total["classifier.intersect"],
            "classifier.minimize_s": total["classifier.minimize"],
            "classifier.product_states": c["classifier.product_states"],
            "classifier.model_states_final": c["classifier.model_states_final"],
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS[1:]},
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans),
            "trace.attributed_ratio": sum(layer_self.values()) / wall_s,
            "trace.overhead_ratio": wall_s / untraced_s,
        }
        present = {
            name: value for name, value in values.items()
            if not any(need in self.absent for need in METRICS[name][2])
        }
        return {name: {"value": value, "unit": METRICS[name][0]}
                for name, value in present.items()}

    def write_spans(self, path) -> None:
        """One JSON array per span: [id, parent, name, layer, item, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
