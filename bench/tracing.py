"""Per-module tracing installed from outside the library.

`Tracer.install()` rebinds the package's functions to wrappers: every
public function of each module, the names other modules import from it
(`certify.wasserstein_1d`, `coupling.solve_transport_lp`, ...), SciPy's
`linprog` as seen by `transport`, the metric classes' `distance` methods
and `DiscreteMeasure.__post_init__`. Ordinary functions get spans; hot
scalar functions get counters only, so their time stays in the caller.
A span's self time is its duration minus the time of its child spans.
`uninstall()` restores every binding.
"""
from __future__ import annotations

import json
import time
import types
from collections import defaultdict

import concentra
from concentra import certify, cli, constants, coupling, entropy, jsonio, measures, processes, transport

MODULES = (measures, transport, entropy, constants, processes, certify, coupling, jsonio, cli)
LAYERS = ("measures", "transport", "entropy", "constants", "processes", "certify", "coupling", "cli")

# hot scalar functions: counted, not timed
COUNTERS = {
    "measures.product_distance": "measures.distance_calls",
    "constants.geometric_sum": "constants.calls",
    "certify.gc_slack": "certify.slack_evals",
    "certify.transport_slack": "certify.slack_evals",
    "certify.lsi_slack": "certify.slack_evals",
}
# private functions that mark a layer boundary
PRIVATE_SPANS = {"cli._emit", "cli._load_json"}
CHECKERS = {"certify.check_gc", "certify.check_transport", "certify.check_lsi_grid"}

# counts that must repeat exactly between two traced runs of one seed
REPEAT_COUNTS = (
    "measures.distance_calls",
    "measures.discrete_measure_new",
    "transport.linprog.calls",
    "transport.colgen.rounds",
    "certify.slack_evals",
    "certify.best_constant.checker_calls",
    "certify.search_size",
    "coupling.step_lps",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        # frames: name, start, child time, span id, layer, colgen marker
        self.stack = [["root", 0.0, 0.0, 0, "bench", None]]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self._next = 1
        self._restore = []

    # ------------------------------------------------------------ spans

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; used for wrappers and for job roots."""
        if not self.active:
            return fn(*args, **kwargs)
        parent = self.stack[-1]
        frame = [name, 0.0, 0.0, self._next, layer, None]
        self._next += 1
        self._on_enter(frame, parent, args)
        self.stack.append(frame)
        t0 = frame[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if parent[4] != layer:
                self.counts[f"{layer}.failed"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame[2]
            self.calls[name] += 1
            parent[2] += dur
            self.spans.append((frame[3], name, t0, t1, parent[3], self.job))
        self._on_result(name, result, parent)
        return result

    def _on_enter(self, frame, parent, args):
        name = frame[0]
        if name == "transport.solve_transport_lp":
            if parent[4] == "coupling":
                self.counts["coupling.step_lps"] += 1
            cost = args[0]
            if cost.shape[0] * cost.shape[1] > transport._COLGEN_THRESHOLD:
                self.counts["transport.colgen.solves"] += 1
                frame[5] = "colgen"
        elif name == "transport.linprog" and parent[5] == "colgen":
            self.counts["transport.colgen.rounds"] += 1
        elif name in CHECKERS and parent[0] == "certify.best_constant":
            self.counts["certify.best_constant.checker_calls"] += 1

    def _on_result(self, name, result, parent):
        if name in CHECKERS:
            self.counts["certify.search_size"] += result.search_size
        elif name == "transport.linprog":
            self.counts["transport.linprog.iterations"] += int(getattr(result, "nit", 0) or 0)
        elif name == "processes.simulate_joint":
            self.counts["processes.samples_drawn"] += int(result.values.size)

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, fn, name, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(name, layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, fn, key):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, name, key):
        """Timed and counted, but recorded as a count rather than a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.self_s[name] += dur
                tracer.counts[key] += 1
                tracer.stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}

        def wrapper_for(fn):
            if fn not in wrapped:
                layer = fn.__module__.rsplit(".", 1)[1]
                name = f"{layer}.{fn.__name__}"
                if name in COUNTERS:
                    wrapped[fn] = self._counter_wrapper(fn, COUNTERS[name])
                else:
                    wrapped[fn] = self._span_wrapper(fn, name, "cli" if layer == "jsonio" else layer)
            return wrapped[fn]

        for module in MODULES + (concentra,):
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("concentra."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in PRIVATE_SPANS:
                    continue
                self._set(module, attr, wrapper_for(obj))
        self._set(cli, "_FORMULAS", {k: (wrapper_for(fn), names) for k, (fn, names) in cli._FORMULAS.items()})
        self._set(transport, "linprog", self._span_wrapper(transport.linprog, "transport.linprog", "transport"))
        for cls in (measures.RealLine, measures.FiniteMetricSpace, measures.ProductSpace, coupling._LabelLine):
            self._set(cls, "distance", self._counter_wrapper(cls.distance, "measures.distance_calls"))
        self._set(
            measures.DiscreteMeasure,
            "__post_init__",
            self._leaf_wrapper(
                measures.DiscreteMeasure.__post_init__,
                "measures.DiscreteMeasure.__post_init__",
                "measures.discrete_measure_new",
            ),
        )
        for cls in (measures.FiniteMetricSpace, measures.GaussianMeasure):
            name = f"measures.{cls.__name__}.__post_init__"
            self._set(cls, "__post_init__", self._span_wrapper(cls.__post_init__, name, "measures"))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ----------------------------------------------------------- results

    def metrics(self) -> dict:
        """Per-module metrics from the recorded spans and counters."""
        s, c, n = self.self_s, self.counts, self.calls

        def self_of(*names):
            return float(sum(s[k] for k in names))

        def self_prefix(prefix, exclude=()):
            return float(sum(v for k, v in s.items() if k.startswith(prefix) and k not in exclude))

        jsonio_names = [k for k in s if k.startswith("jsonio.")] + ["cli._emit", "cli._load_json"]
        families = ("certify.lipschitz_family", "certify.tilt_family", "certify.default_lsi_family")
        out = {
            "measures.distance_calls": (c["measures.distance_calls"], "count"),
            "measures.discrete_measure_new": (c["measures.discrete_measure_new"], "count"),
            "measures.self_s": (self_prefix("measures."), "s"),
            "transport.cost_matrix.self_s": (s["transport.cost_matrix"], "s"),
            "transport.solve_transport_lp.self_s": (s["transport.solve_transport_lp"], "s"),
            "transport.linprog.calls": (n["transport.linprog"], "count"),
            "transport.linprog.s": (s["transport.linprog"], "s"),
            "transport.linprog.iterations": (c["transport.linprog.iterations"], "count"),
            "transport.colgen.solves": (c["transport.colgen.solves"], "count"),
            "transport.colgen.rounds": (c["transport.colgen.rounds"], "count"),
            "transport.wasserstein_1d.self_s": (s["transport.wasserstein_1d"], "s"),
            "transport.kantorovich_dual_w1.self_s": (s["transport.kantorovich_dual_w1"], "s"),
            "entropy.relative_entropy_discrete.calls": (n["entropy.relative_entropy_discrete"], "count"),
            "entropy.relative_entropy_discrete.self_s": (s["entropy.relative_entropy_discrete"], "s"),
            "entropy.chain_rule_decompose.self_s": (s["entropy.chain_rule_decompose"], "s"),
            "constants.calls": (c["constants.calls"] + sum(v for k, v in n.items() if k.startswith("constants.")), "count"),
            "constants.self_s": (self_prefix("constants."), "s"),
            "processes.simulate_joint.self_s": (s["processes.simulate_joint"], "s"),
            "processes.samples_drawn": (c["processes.samples_drawn"], "count"),
            "processes.joint_law.self_s": (self_of("processes.tabular_joint_law", "processes.gaussian_chain_joint"), "s"),
            "certify.vertices.calls": (n["certify.lipschitz_polytope_vertices"], "count"),
            "certify.vertices.self_s": (s["certify.lipschitz_polytope_vertices"], "s"),
            "certify.family.self_s": (self_of(*families), "s"),
            "certify.slack_evals": (c["certify.slack_evals"], "count"),
            "certify.check.self_s": (
                self_prefix("certify.", exclude=families + ("certify.lipschitz_polytope_vertices",)), "s"),
            "certify.best_constant.checker_calls": (c["certify.best_constant.checker_calls"], "count"),
            "certify.search_size": (c["certify.search_size"], "count"),
            "coupling.bound.self_s": (s["coupling.recursive_coupling_bound"], "s"),
            "coupling.audit.self_s": (s["coupling.transport_inequality_audit"], "s"),
            "coupling.step_lps": (c["coupling.step_lps"], "count"),
            "cli.main.self_s": (self_prefix("cli.", exclude=("cli._emit", "cli._load_json")), "s"),
            "cli.jsonio.self_s": (self_of(*jsonio_names), "s"),
            "cli.bytes_out": (c["cli.bytes_out"], "B"),
        }
        for layer in LAYERS:
            out[f"{layer}.failed"] = (c[f"{layer}.failed"], "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps([sid, name, t0, t1, parent, job]) + "\n")
