"""Span recording for a traced bstar command, and the per-layer metrics
derived from the spans.

``Tracer`` is used by ``tracer.py`` inside the traced command process: it
wraps the public functions of every bstar module (in ``cli`` only ``main``
and its file reader) and records a span for each call.  Nothing under
``src/`` is edited: the wrappers are installed on the imported modules of
that process only.

Each span is ``[name_id, start, end, parent_index, outermost]``; the span
file also holds the command id, the import time of ``bstar.cli``, matrix
size counts taken from the arguments of the linear-algebra calls, and the
``cache_info()`` of the memoised functions, read from the original cached
function rather than from its wrapper.  ``layer_metrics`` runs in the
benchmark process and turns the span files of a run into the per-layer
metrics.
"""

import functools
import importlib
import marshal
import sys
import time
import types

LAYERS = ("cli", "complexes", "homology", "linalg", "properties",
          "theorems", "vectors", "rigidity", "constructions")

# In cli only `main` and the JSON reader `_read_complex_file` are traced,
# so that cli.self_s is argparse, glue and JSON emission.  The reader is
# counted as complexes.parse (see layers.group_of).
_CLI_TRACED = ("main", "_read_complex_file")
_COMPLEX_METHODS = ("faces", "face_masks", "f_vector")
# The span that times the tracer's own scan of an argument matrix.  It is
# a child of the caller's span, so the scan is not counted as the
# caller's self time, and it belongs to no layer.
COUNT_SPAN = "trace.count_cells"

BUILD = ("link", "deletion", "contrastar", "skeleton", "join", "cone", "from_facets")
RELATIVE = ("relative_betti", "relative_surjectivity",
            "top_projection_surjective", "first_nonbounding_cycle")
DECIDERS = {
    "cohen_macaulay": "is_cohen_macaulay",
    "m_cohen_macaulay": "is_m_cohen_macaulay",
    "buchsbaum": "is_buchsbaum",
    "m_buchsbaum": "is_m_buchsbaum",
    "buchsbaum_star": "is_buchsbaum_star",
    "m_buchsbaum_star": "is_m_buchsbaum_star",
    "gorenstein_star": "is_gorenstein_star",
    "homology_manifold": "is_homology_manifold",
}
# Memoised functions whose cache_info() gives a hit ratio.
CACHES = {
    "homology.betti": ("homology", "betti"),
    **{f"properties.{d}": ("properties", fn) for d, fn in DECIDERS.items()
       if d != "homology_manifold"},
    "properties.homology_manifold": ("properties", "_manifold_report"),
}
CHECKS = ("counterexample_fidelity", "orientability_dichotomy", "cm_collapse",
          "buchsbaum_star_implications", "surjectivity_oracle",
          "vector_identities", "flag_bounds", "lower_bound_theorem",
          "rigidity_connectivity", "constructions", "ear_verifier",
          "m_hierarchy", "component_locality", "graph_characterization",
          "kunneth_join", "excision", "facet_shortcut_probe",
          "conjecture_probes", "skeleton_hierarchy")


class Tracer:
    """Wraps bstar functions in this process and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self.counts = {"linalg.cells": 0, "linalg.nnz": 0, "linalg.max_cells": 0}

    def _record(self, name, fn, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] = depth
            self.spans[index] = [nid, start, end, parent, depth == 0]

    def _count_cells(self, matrix):
        rows = len(matrix)
        cells = rows * len(matrix[0]) if rows else 0
        self.counts["linalg.cells"] += cells
        self.counts["linalg.nnz"] += sum(len(r) - r.count(0) for r in matrix)
        self.counts["linalg.max_cells"] = max(self.counts["linalg.max_cells"], cells)

    def _wrap(self, name, fn):
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs)
        return traced

    def _wrap_linalg(self, name, fn):
        record, count = self._record, self._count_cells

        @functools.wraps(fn)
        def traced(matrix, field):
            record(COUNT_SPAN, count, (matrix,), {})
            if name == "linalg.rank":
                kernel = "q" if field.p is None else "gf2" if field.p == 2 else "gfp"
                return record(f"linalg.rank.{kernel}", fn, (matrix, field), {})
            return record(name, fn, (matrix, field), {})
        return traced

    def install(self) -> None:
        """Wrap the traced functions and patch every reference to them."""
        modules = {layer: importlib.import_module(f"bstar.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr in _traced_names(layer, mod):
                fn = getattr(mod, attr)
                self.originals[(layer, attr)] = fn
                name = f"{layer}.{attr}"
                if name in ("linalg.rank", "linalg.nullspace_basis"):
                    replace[id(fn)] = (fn, self._wrap_linalg(name, fn))
                else:
                    replace[id(fn)] = (fn, self._wrap(name, fn))
        complex_cls = modules["complexes"].Complex
        for attr in _COMPLEX_METHODS:
            fn = getattr(complex_cls, attr)
            setattr(complex_cls, attr, self._wrap(f"complexes.Complex.{attr}", fn))

        def wrapper_of(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        # The same function object can sit under several names and in
        # module-level tables (cli imports property_report by name,
        # theorems keeps its checks in a list and compares them with
        # `is`), so every reference in every bstar module is patched.
        for mod in [m for n, m in sys.modules.items()
                    if n == "bstar" or n.startswith("bstar.")]:
            for key, value in list(vars(mod).items()):
                if wrapper_of(value) is not None:
                    setattr(mod, key, wrapper_of(value))
                elif isinstance(value, (list, dict)):
                    keys = range(len(value)) if isinstance(value, list) else list(value)
                    for k in keys:
                        if wrapper_of(value[k]) is not None:
                            value[k] = wrapper_of(value[k])

    def cache_stats(self) -> dict:
        out = {}
        for key, (layer, attr) in CACHES.items():
            fn = self.originals.get((layer, attr))
            if fn is None:
                fn = getattr(sys.modules.get(f"bstar.{layer}"), attr, None)
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                out[key] = (ci.hits, ci.misses)
        return out

    def dump(self, path: str, command_id: str, import_s: float) -> None:
        data = {"command": command_id, "import_s": import_s, "names": self.names,
                "spans": self.spans,
                "counts": self.counts, "caches": self.cache_stats()}
        with open(path, "wb") as fh:
            marshal.dump(data, fh)


def _traced_names(layer: str, mod) -> list[str]:
    if layer == "cli":
        return [a for a in _CLI_TRACED if hasattr(mod, a)]
    return [attr for attr, value in vars(mod).items()
            if not attr.startswith("_")
            and (isinstance(value, types.FunctionType) or hasattr(value, "cache_info"))
            and getattr(value, "__module__", None) == mod.__name__]



# -- aggregation (runs in the benchmark process) ------------------------


def _metric_specs():
    specs = [("cli.import_s", "s")]
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    specs += [("complexes.predicates.calls", "count"),
              ("complexes.predicates.self_s", "s"),
              ("complexes.build.calls", "count"),
              ("complexes.build.self_s", "s"),
              ("complexes.link.calls", "count"),
              ("complexes.deletion.calls", "count"),
              ("complexes.contrastar.calls", "count"),
              ("complexes.enumerate.self_s", "s"),
              ("complexes.parse.self_s", "s"),
              ("homology.betti_at.calls", "count"),
              ("homology.relative.calls", "count"),
              ("homology.betti.calls", "count"),
              ("homology.betti.hit_ratio", "ratio")]
    for kernel in ("q", "gf2", "gfp"):
        specs += [(f"linalg.rank.{kernel}.calls", "count"),
                  (f"linalg.rank.{kernel}.self_s", "s")]
    specs += [("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"),
              ("linalg.in_column_space.calls", "count"),
              ("linalg.in_column_space.self_s", "s"),
              ("linalg.cells", "count"), ("linalg.nnz", "count"),
              ("linalg.max_cells", "count")]
    for d in DECIDERS:
        specs.append((f"properties.{d}.incl_s", "s"))
    for d in DECIDERS:
        specs.append((f"properties.{d}.hit_ratio", "ratio"))
    specs.append(("properties.report.self_s", "s"))
    specs += [(f"theorems.{c}.incl_s", "s") for c in CHECKS]
    specs += [("vectors.calls", "count"), ("rigidity.calls", "count"),
              ("trace.overhead_share", "ratio")]
    return specs


# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = _metric_specs()

def group_of(name: str) -> tuple[str, str]:
    """(layer, group) of a span name; groups are the metric families."""
    layer, _, rest = name.partition(".")
    if name == "cli._read_complex_file":
        return "complexes", "parse"
    if layer == "complexes":
        if rest == "predicates":
            return layer, "predicates"
        if rest in BUILD:
            return layer, "build"
        if rest.startswith("Complex."):
            return layer, "enumerate"
        if rest in ("parse", "to_json", "to_text"):
            return layer, "parse"
    return layer, rest


def load_spans(path) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def layer_metrics(dumps: list[dict], passes: int,
                  overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from the span files of `passes` traced passes.

    Times and counts are per pass (totals divided by `passes`); ratios are
    taken over the totals.  Self time is a span's duration minus the
    durations of its child spans.  `overhead_share` is passed through.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    import_s = 0.0
    counts = {"linalg.cells": 0, "linalg.nnz": 0, "linalg.max_cells": 0}
    caches: dict[str, list[int]] = {}
    for d in dumps:
        names, spans = d["names"], d["spans"]
        import_s += d["import_s"]
        for k in ("linalg.cells", "linalg.nnz"):
            counts[k] += d["counts"][k]
        counts["linalg.max_cells"] = max(counts["linalg.max_cells"],
                                         d["counts"]["linalg.max_cells"])
        for key, (hits, misses) in d["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
        children = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for (nid, start, end, _, outer), child in zip(spans, children):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            if outer:
                incl_s[name] = incl_s.get(name, 0.0) + (end - start)

    def total(table, pred):
        return sum(v for k, v in table.items() if pred(k)) / passes

    def layer_is(layer):
        return lambda n: group_of(n)[0] == layer

    def group_is(layer, group):
        return lambda n: group_of(n) == (layer, group)

    def named(*full):
        return lambda n: n in full

    def ratio(key):
        hits, misses = caches.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    # The tracer's own spans (COUNT_SPAN) belong to no layer and are left
    # out of the time the shares are taken of.
    busy = sum(total(self_s, layer_is(layer)) for layer in LAYERS)
    m = {"cli.import_s": import_s / passes}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(self_s, layer_is(layer))
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / busy if busy else 0.0
    m.update({
        "complexes.predicates.calls": total(calls, group_is("complexes", "predicates")),
        "complexes.predicates.self_s": total(self_s, group_is("complexes", "predicates")),
        "complexes.build.calls": total(calls, group_is("complexes", "build")),
        "complexes.build.self_s": total(self_s, group_is("complexes", "build")),
        "complexes.link.calls": total(calls, named("complexes.link")),
        "complexes.deletion.calls": total(calls, named("complexes.deletion")),
        "complexes.contrastar.calls": total(calls, named("complexes.contrastar")),
        "complexes.enumerate.self_s": total(self_s, group_is("complexes", "enumerate")),
        "complexes.parse.self_s": total(self_s, group_is("complexes", "parse")),
        "homology.betti_at.calls": total(calls, named("homology.betti_at")),
        "homology.relative.calls": total(calls, named(*(f"homology.{r}" for r in RELATIVE))),
        "homology.betti.calls": total(calls, named("homology.betti")),
        "homology.betti.hit_ratio": ratio("homology.betti"),
    })
    for kernel in ("q", "gf2", "gfp"):
        m[f"linalg.rank.{kernel}.calls"] = total(calls, named(f"linalg.rank.{kernel}"))
        m[f"linalg.rank.{kernel}.self_s"] = total(self_s, named(f"linalg.rank.{kernel}"))
    m.update({
        "linalg.nullspace.calls": total(calls, named("linalg.nullspace_basis")),
        "linalg.nullspace.self_s": total(self_s, named("linalg.nullspace_basis")),
        "linalg.in_column_space.calls": total(calls, named("linalg.in_column_space")),
        "linalg.in_column_space.self_s": total(self_s, named("linalg.in_column_space")),
        "linalg.cells": counts["linalg.cells"] / passes,
        "linalg.nnz": counts["linalg.nnz"] / passes,
        "linalg.max_cells": counts["linalg.max_cells"],
    })
    for d, fn in DECIDERS.items():
        m[f"properties.{d}.incl_s"] = total(incl_s, named(f"properties.{fn}"))
    for d in DECIDERS:
        m[f"properties.{d}.hit_ratio"] = ratio(f"properties.{d}")
    m["properties.report.self_s"] = total(self_s, named("properties.property_report"))
    for c in CHECKS:
        m[f"theorems.{c}.incl_s"] = total(incl_s, named(f"theorems.check_{c}"))
    m["vectors.calls"] = total(calls, layer_is("vectors"))
    m["rigidity.calls"] = total(calls, layer_is("rigidity"))
    m["trace.overhead_share"] = overhead_share
    return m
