"""Outside-in span tracing for the benchmark.

The tracer never edits spexlab. It swaps timing wrappers in for the module
attributes through which one spexlab module calls another (and through
which the benchmark calls in), records one span per call in memory, and
puts every attribute back afterwards. Wrappers close over the original
object, so `patterns._cform` keeps its own LRU cache underneath.

Spans are (name, parent, start, end). A span's self time is its duration
minus the durations of its direct children; a layer's self time is the sum
over its spans. `Tracer.save` writes the spans and counters to an .npz
file; `layer_metrics` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, layer). The layer decides where a span's self time is
# booked; the span name is "module.attribute".
SITES = (
    ("oracle", "spex_oracle", "oracle"),
    ("oracle", "ex_oracle", "oracle"),
    ("oracle", "restricted_ex", "oracle"),
    ("oracle", "_accepted_children", "oracle"),
    ("oracle", "_canonical", "canon"),
    ("oracle", "canonical_form", "canon"),
    ("oracle", "is_free", "patterns"),
    ("oracle", "encode_graph6", "graph6"),
    ("oracle", "spectral_radius", "spectral.radius"),
    ("oracle", "compare_lambda_exact", "spectral.exact"),
    ("oracle", "perron_root_interval", "spectral.exact"),
    ("oracle", "free_trees", "constructions"),
    ("patterns", "is_free", "patterns"),
    ("patterns", "_cform", "canon"),
    ("patterns", "_contains", "patterns"),
    ("patterns", "_join_split", "patterns"),
    ("patterns", "_pack_components", "patterns"),
    ("patterns", "_core_match", "patterns"),
    ("spectral", "compare_lambda_exact", "spectral.exact"),
    ("spectral", "perron_less_than", "spectral.exact"),
    ("spectral", "induced_subgraph", "graphs.subgraph"),
    ("spectral", "adjacency_matrix", "graphs.subgraph"),
    ("constructions", "canonical_form", "canon"),
    ("asymptotics", "spectral_radius", "spectral.radius"),
    ("asymptotics", "fit_first_order", "asymptotics.fit"),
    ("asymptotics", "cx1_pair", "constructions"),
    ("asymptotics", "star_path_pair", "constructions"),
)
# every value of asymptotics._BUILDERS is wrapped too, in this layer
BUILDER_LAYER = "asymptotics.build"

class Tracer:
    """Patches the call sites in SITES, records spans, and restores them."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._names: list[str] = []
        self._layers: list[str] = []
        self._name_ix = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.counters = {"oracle.children": 0, "spectral.iterations": 0}
        # the LRU object itself, so its statistics stay readable while patched
        self._cform = modules["patterns"]._cform
        self._cform_info0 = None

    def _wrap(self, name: str, layer: str, fn, after=None):
        ix = len(self._names)
        self._names.append(name)
        self._layers.append(layer)
        name_ix, parent, start, end = self._name_ix, self._parent, self._start, self._end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _children(self, args, res) -> None:
        g = args[0]
        self.counters["oracle.children"] += g.n * (g.n - 1) // 2 - g.edge_count

    def _iterations(self, args, res) -> None:
        self.counters["spectral.iterations"] += res.iterations

    def install(self) -> None:
        hooks = {"_accepted_children": self._children,
                 "spectral_radius": self._iterations}
        for mod_name, attr, layer in SITES:
            mod = self._modules[mod_name]
            orig = getattr(mod, attr)
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", layer, orig,
                                          hooks.get(attr)))
        builders = self._modules["asymptotics"]._BUILDERS
        for key, orig in list(builders.items()):
            self._patched.append((builders, key, orig))
            builders[key] = self._wrap(f"asymptotics._BUILDERS[{key}]",
                                       BUILDER_LAYER, orig)
        self._cform_info0 = self._cform.cache_info()

    def restore(self) -> list[str]:
        """Put every patched attribute back; return those still not original."""
        info = self._cform.cache_info()
        self.counters["canon.lru_hits"] = info.hits - self._cform_info0.hits
        self.counters["canon.lru_misses"] = info.misses - self._cform_info0.misses
        self.counters["patterns.cache_entries"] = len(self._modules["patterns"]._cache)
        for obj, attr, orig in reversed(self._patched):
            if isinstance(obj, dict):
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)
        return [attr for obj, attr, orig in self._patched
                if (obj[attr] if isinstance(obj, dict) else getattr(obj, attr)) is not orig]

    def save(self, path) -> None:
        np.savez(path,
                 name=np.frombuffer(self._name_ix, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 meta=np.array(json.dumps({"names": self._names,
                                           "layers": self._layers,
                                           "counters": self.counters})))


def layer_metrics(path) -> dict:
    """Per-layer metrics from a saved span file (all but trace.overhead_frac)."""
    with np.load(path) as z:
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
        meta = json.loads(str(z["meta"]))
    names, layers, counters = meta["names"], meta["layers"], meta["counters"]
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - covered
    calls_by_name = dict(zip(names, np.bincount(name, minlength=len(names))))
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))

    def calls(*spans: str) -> int:
        return int(sum(calls_by_name.get(s, 0) for s in spans))

    def self_of(layer: str) -> float:
        return float(sum(self_by_name[i] for i, lay in enumerate(layers) if lay == layer))

    lookups = counters["canon.lru_hits"] + counters["canon.lru_misses"]
    canon_calls = (calls("oracle._canonical", "oracle.canonical_form",
                         "constructions.canonical_form")
                   + counters["canon.lru_misses"])
    children = counters["oracle.children"]
    classes = calls("oracle._accepted_children")
    return {
        "oracle.self_s": self_of("oracle"),
        "oracle.children": children,
        "oracle.classes": classes,
        "oracle.accept_ratio": classes / children if children else 0.0,
        "oracle.canon_per_child": canon_calls / children if children else 0.0,
        "canon.calls": canon_calls,
        "canon.self_s": self_of("canon"),
        "canon.lru_hit_ratio": counters["canon.lru_hits"] / lookups if lookups else 0.0,
        "graph6.calls": calls("oracle.encode_graph6"),
        "graph6.self_s": self_of("graph6"),
        "patterns.is_free_calls": calls("oracle.is_free", "patterns.is_free"),
        "patterns.contains_calls": calls("patterns._contains"),
        "patterns.self_s": self_of("patterns"),
        "patterns.join_split_calls": calls("patterns._join_split"),
        "patterns.pack_calls": calls("patterns._pack_components"),
        "patterns.core_match_calls": calls("patterns._core_match"),
        "patterns.cache_entries": counters["patterns.cache_entries"],
        "spectral.radius_calls": calls("oracle.spectral_radius",
                                       "asymptotics.spectral_radius"),
        "spectral.radius_self_s": self_of("spectral.radius"),
        "spectral.iterations": counters["spectral.iterations"],
        "graphs.subgraph_s": self_of("graphs.subgraph"),
        "spectral.exact_calls": calls("oracle.compare_lambda_exact",
                                      "oracle.perron_root_interval",
                                      "spectral.compare_lambda_exact"),
        "spectral.exact_self_s": self_of("spectral.exact"),
        "spectral.mmatrix_tests": calls("spectral.perron_less_than"),
        "asymptotics.build_s": self_of(BUILDER_LAYER),
        "asymptotics.fit_s": self_of("asymptotics.fit"),
        "constructions.self_s": self_of("constructions"),
    }
