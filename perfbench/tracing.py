"""Per-layer tracing of finslerlab from outside its source.

``Tracer.install`` replaces the public callables of the seven modules
(``jets``, ``geometry``, ``alphabeta``, ``catalog``, ``verify``,
``exprlang``, ``cli``) by wrappers that record a span per call, under
every name the callable is bound to (``verify.metric_tensor``,
``jets._compose_series``, ``TaylorValue.__rmul__`` and so on), and
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

A span has a name ``<layer>.<what>``, a start, an end, the span that
caused it and the job it ran in.  A call whose innermost open span has
the same name is folded into it (recursion, ``extract_y`` calling
``extract``).  Every span adds its duration to its parent's child time,
so a span's self time is its duration minus its children's, and the self
times of all spans of a job add up to the job's wall time: the coverage
check compares the two per job, so a call that escapes every span shows.

Jet arithmetic runs hundreds of thousands of times per pass, so ``jets``
spans other than table builds are kept only as per-name aggregates
(calls, inclusive seconds, self seconds); every other span is kept in
memory and written out by :meth:`Tracer.write`.

Calls that stay unwrapped on purpose, because they are too small to time
without distorting the result, are charged to whichever span calls them:
the ``TaylorValue.value`` property, private helpers, and the catalog's
float-only domain guards apart from the call made through
``draw_samples``.  ``TaylorValue.__init__`` is counted but not timed.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import defaultdict

from finslerlab import alphabeta, catalog, cli, exprlang, geometry, jets, verify

LAYERS = ("jets", "geometry", "alphabeta", "catalog", "verify", "exprlang", "cli")
MODULES = (jets, geometry, alphabeta, catalog, verify, exprlang, cli)
ENTRY_POINTS = (
    "verify.classify",
    "verify.check_metrizability",
    "verify.landsberg_via_p",
    "verify.compare_sprays",
)
TABLE_BUILD = "jets.table_build"
KEPT_JETS_SPANS = (TABLE_BUILD, "jets.space_build")

# Module-level callables: (module, attribute, span name).
_FUNCTIONS = [
    (jets, "jet_space", "jets.jet_space"),
    (jets, "seed_variable", "jets.seed_variable"),
    (jets, "fiber_arguments", "jets.fiber_arguments"),
    (jets, "compose_series", "jets.series"),
    *[(jets, fn, f"jets.{fn}") for fn in (
        "sqrt", "exp", "ln", "power", "arctan", "arctanh", "sin", "cos")],
    (geometry, "seeded_arguments", "geometry.seeded_arguments"),
    (geometry, "_solve_jet_system", "geometry.solve"),
    (geometry, "metric_tensor", "geometry.metric_tensor"),
    *[(geometry, fn, f"geometry.{fn}") for fn in (
        "geodesic_spray", "ad_spray_field", "berwald_tensor",
        "landsberg_tensor", "horizontal_differential", "euler_residual",
        "point_tensors")],
    (alphabeta, "ab_spray_jets", "alphabeta.ab_spray"),
    (alphabeta, "_q_w_theta_jets", "alphabeta.q_theta"),
    *[(alphabeta, fn, f"alphabeta.{fn}") for fn in (
        "riemann_spray_jets", "riemann_spray", "q_theta", "q_aux", "ab_spray",
        "ab_spray_field", "shen_class_spray_jets", "shen_class_spray",
        "shen_class_spray_field")],
    (catalog, "make_spec", "catalog.spec_build"),
    (catalog, "build_finsler", "catalog.spec_build"),
    *[(catalog, fn, f"catalog.{fn}") for fn in (
        "make_setup", "default_f", "expected_berwald_component",
        "class_equivalence_pairs")],
    (verify, "classify", "verify.classify"),
    (verify, "check_metrizability", "verify.check_metrizability"),
    (verify, "landsberg_via_p", "verify.landsberg_via_p"),
    (verify, "compare_sprays", "verify.compare_sprays"),
    (verify, "report_to_json", "verify.report_json"),
    *[(verify, fn, f"verify.{fn}") for fn in (
        "decide_verdict", "verdict_slug", "perturbed_projective_factor")],
    (exprlang, "parse_expr", "exprlang.parse"),
    (exprlang, "evaluate", "exprlang.eval"),
    *[(exprlang, fn, f"exprlang.{fn}") for fn in ("pretty_print", "compile_expr")],
    *[(cli, fn, f"cli.{fn}") for fn in (
        "main", "run_classify", "build_parser", "list_catalog")],
]


def _mul_name(args, kwargs):
    a, b = args[0], args[1]
    if not isinstance(b, jets.TaylorValue):
        return "jets.scale"
    return "jets.mul.large" if a.space.y_cap >= 4 else "jets.mul.small"


def _spray_name(args, kwargs):
    spray = args[0]
    label = spray.label
    if label.startswith("ad:"):
        order = args[3] if len(args) > 3 else kwargs["order"]
        return f"geometry.ad_spray.order{order}"
    if label.startswith("closed:"):
        return "catalog.closed_spray"
    if label.startswith("ab:"):
        return "alphabeta.ab_spray"
    return "geometry.spray_jets"


# Methods: (class, attribute, span name or namer).  Properties are wrapped
# through their getter.
_METHODS = [
    *[(jets.TaylorValue, op, f"jets.{op.strip('_')}") for op in (
        "__add__", "__neg__", "__sub__", "__rsub__", "__truediv__",
        "__rtruediv__", "__pow__", "reciprocal", "_nilpotent", "truncate",
        "drop_x", "dx", "dy")],
    (jets.TaylorValue, "__mul__", _mul_name),
    (jets.TaylorValue, "extract", "jets.extract"),
    (jets.TaylorValue, "extract_y", "jets.extract"),
    (jets.JetSpace, "__init__", "jets.space_build"),
    *[(jets.JetSpace, fn, f"jets.{fn}") for fn in ("constant", "seed_x", "seed_y")],
    (geometry.FinslerField, "evaluate", "catalog.field_eval"),
    (geometry.FinslerField, "jet", "geometry.field_jet"),
    (geometry.FinslerField, "value", "geometry.field_value"),
    (geometry.SprayField, "jets", _spray_name),
    (geometry.SprayField, "values", "geometry.spray_values"),
    *[(alphabeta.RiemannSetup, fn, f"alphabeta.{fn}") for fn in (
        "f_values", "k_value", "phi_value", "phi_jet", "a_matrix", "a_inverse",
        "christoffel", "b_covariant_derivative", "b_covector", "b_vector",
        "riemann_spray_field")],
    (alphabeta.PhiFunction, "__call__", "alphabeta.phi_call"),
    (catalog.ClosedFormSpray, "components", "catalog.closed_spray"),
    (catalog.ClosedFormSpray, "as_spray_field", "catalog.closed_spray_field"),
    (verify.ClassificationReport, "to_dict", "verify.report_json"),
]

# Lazily built JetSpace tables; a call counts as a build the first time it
# returns a given table object.
_TABLES = ("mul_table", "diff_table", "truncate_table", "drop_x_table")

# Everything whose attributes install() patches and unpatched_bindings() scans.
OWNERS = (
    *MODULES, jets.TaylorValue, jets.JetSpace, geometry.FinslerField,
    geometry.SprayField, alphabeta.RiemannSetup, alphabeta.PhiFunction,
    catalog.ClosedFormSpray, verify.ClassificationReport,
)


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.job = None
        self.stack = []   # open spans: [name, child_seconds, kept_id]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = defaultdict(int)
        self.spans = []
        self.missing = []
        self._patches = []
        self._originals = []
        self._seen_tables = set()

    # -- spans ---------------------------------------------------------

    def span(self, fn, namer):
        """Wrap ``fn`` so each call records a span named by ``namer``."""
        stack, stats, spans, clock = self.stack, self.stats, self.spans, self.clock
        fixed = namer if isinstance(namer, str) else None

        def traced(*args, **kwargs):
            name = fixed or namer(args, kwargs)
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            keep = not name.startswith("jets.") or name in KEPT_JETS_SPANS
            kept_id = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [name, 0.0, kept_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                entry = stats[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans[kept_id] = (name, t0 - self.origin, t1 - self.origin,
                                      parent, self.job)

        traced.__wrapped__ = fn
        return traced

    def _table(self, fn):
        """Wrap a lazy table getter; only first builds become spans."""
        stack, stats, clock, seen = self.stack, self.stats, self.clock, self._seen_tables
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [TABLE_BUILD, 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                table = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            built = id(table) not in seen
            dur = t1 - t0
            if built:
                seen.add(id(table))
                entry = stats[TABLE_BUILD]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                spans[frame[2]] = (TABLE_BUILD, t0 - self.origin,
                                   t1 - self.origin, parent, self.job)
            else:
                spans.pop()  # a cache hit is part of its caller
            if stack:
                stack[-1][1] += dur if built else frame[1]
            return table

        traced.__wrapped__ = fn
        return traced

    def _counted_init(self, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts["jets.values_created"] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _sampling(self, fn):
        """draw_samples: a sampling span, and the guard it is given is
        counted (calls, accepts) and timed as a catalog span."""
        traced_draw = self.span(fn, "verify.sampling")
        counts = self.counts

        def traced(domain_guard, *args, **kwargs):
            timed_guard = self.span(domain_guard, "catalog.guard")

            def guard(x, y):
                ok = timed_guard(x, y)
                counts["verify.guard_calls"] += 1
                counts["verify.guard_accepts"] += bool(ok)
                return ok

            return traced_draw(guard, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _with_result(self, fn, name, fix):
        """A span around a factory whose result holds catalog closures
        that other layers call directly; ``fix`` wraps those closures."""
        return self.span(lambda *args, **kwargs: fix(fn(*args, **kwargs)), name)

    # -- install / uninstall --------------------------------------------

    def _replacements(self):
        """Map id(original) -> (original, wrapper) for every hook."""
        out = {}
        self.missing = []

        def add(original, wrapper):
            out[id(original)] = (original, wrapper)

        for mod, attr, name in _FUNCTIONS:
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod.__name__}.{attr}")
            else:
                add(fn, self.span(fn, name))
        for cls, attr, name in _METHODS:
            fn = cls.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"{cls.__name__}.{attr}")
            else:
                add(fn, self.span(fn, name))
        init = jets.TaylorValue.__dict__["__init__"]
        add(init, self._counted_init(init))
        for attr in _TABLES:
            got = jets.JetSpace.__dict__.get(attr)
            if got is None:
                self.missing.append(f"JetSpace.{attr}")
            elif isinstance(got, property):
                add(got, property(self._table(got.fget)))
            else:
                add(got, self._table(got))
        add(verify.draw_samples, self._sampling(verify.draw_samples))

        def fix_closed(cfs):
            return dataclasses.replace(
                cfs,
                g1=self.span(cfs.g1, "catalog.closed_spray"),
                p=self.span(cfs.p, "catalog.closed_spray"),
            )

        def fix_phi(phi):
            return dataclasses.replace(phi, fn=self.span(phi.fn, "catalog.phi_eval"))

        add(catalog.closed_form_spray, self._with_result(
            catalog.closed_form_spray, "catalog.spec_build", fix_closed))
        add(catalog.phi_function, self._with_result(
            catalog.phi_function, "catalog.phi_function", fix_phi))
        return out

    def install(self):
        """Patch every binding of every hooked callable."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = self._replacements()
        self._originals = [orig for orig, _ in replacements.values()]
        for owner in OWNERS:
            for attr, val in list(vars(owner).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, val))

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    def unpatched_bindings(self):
        """Names (module or class attributes, one container level deep)
        still bound to a hooked original while installed."""
        originals = {id(o) for o in self._originals}
        found = []
        for owner in OWNERS:
            for attr, val in vars(owner).items():
                vals = [val]
                if isinstance(val, dict):
                    vals = list(val.values())
                elif isinstance(val, (list, tuple)):
                    vals = list(val)
                if any(id(v) in originals for v in vals):
                    found.append(f"{owner.__name__}.{attr}")
        return found

    # -- results ---------------------------------------------------------

    def reset(self):
        """Forget spans and aggregates (tables already seen stay seen)."""
        self.stats.clear()
        self.counts.clear()
        self.spans.clear()

    def write(self, path, meta):
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end",
                                                 "parent", "job"],
                       "spans": [s for s in self.spans if s is not None]}, fh)

    def total_self(self):
        return sum(entry[2] for entry in self.stats.values())

    def layer_metrics(self, setup_stats):
        """The per-layer metrics of one traced pass; table builds come from
        ``setup_stats``, the aggregates of the traced warm-up."""
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats[name][0] if name in stats else 0

        def incl(name):
            return stats[name][1] if name in stats else 0.0

        def self_of(pred):
            return sum(e[2] for n, e in stats.items() if pred(n))

        table = setup_stats.get(TABLE_BUILD, (0, 0.0, 0.0))
        space = setup_stats.get("jets.space_build", (0, 0.0, 0.0))
        guard_calls = counts["verify.guard_calls"]
        m = {
            "jets.table_builds": (table[0], "count"),
            "jets.table_build_s": (table[1], "s"),
            "jets.space_builds": (space[0], "count"),
            "jets.timed_table_builds": (calls(TABLE_BUILD), "count"),
            "jets.mul_calls.large": (calls("jets.mul.large"), "count"),
            "jets.mul_s.large": (incl("jets.mul.large"), "s"),
            "jets.mul_calls.small": (calls("jets.mul.small"), "count"),
            "jets.mul_s.small": (incl("jets.mul.small"), "s"),
            "jets.values_created": (counts["jets.values_created"], "count"),
            "jets.series_calls": (calls("jets.series"), "count"),
            "jets.series_s": (incl("jets.series"), "s"),
            "jets.extract_calls": (calls("jets.extract"), "count"),
            "jets.extract_s": (incl("jets.extract"), "s"),
            "geometry.ad_spray_calls.order0": (calls("geometry.ad_spray.order0"), "count"),
            "geometry.ad_spray_s.order0": (incl("geometry.ad_spray.order0"), "s"),
            "geometry.ad_spray_calls.order3": (calls("geometry.ad_spray.order3"), "count"),
            "geometry.ad_spray_s.order3": (incl("geometry.ad_spray.order3"), "s"),
            "geometry.solve_calls": (calls("geometry.solve"), "count"),
            "geometry.solve_s": (incl("geometry.solve"), "s"),
            "geometry.metric_tensor_calls": (calls("geometry.metric_tensor"), "count"),
            "geometry.metric_tensor_s": (incl("geometry.metric_tensor"), "s"),
            "catalog.field_eval_calls": (calls("catalog.field_eval"), "count"),
            "catalog.field_eval_s": (incl("catalog.field_eval"), "s"),
            "catalog.closed_spray_calls": (calls("catalog.closed_spray"), "count"),
            "catalog.closed_spray_s": (incl("catalog.closed_spray"), "s"),
            "catalog.spec_build_s": (incl("catalog.spec_build"), "s"),
            "alphabeta.ab_spray_calls": (calls("alphabeta.ab_spray"), "count"),
            "alphabeta.ab_spray_s": (incl("alphabeta.ab_spray"), "s"),
            "alphabeta.phi_jet_calls": (calls("alphabeta.phi_jet"), "count"),
            "alphabeta.phi_jet_s": (incl("alphabeta.phi_jet"), "s"),
            "verify.sampling_s": (incl("verify.sampling"), "s"),
            "verify.guard_calls": (guard_calls, "count"),
            "verify.guard_accept_ratio": (
                counts["verify.guard_accepts"] / guard_calls if guard_calls else 0.0,
                "ratio"),
            "verify.self_s": (self_of(lambda n: n in ENTRY_POINTS), "s"),
            "verify.report_json_s": (incl("verify.report_json"), "s"),
            "exprlang.parse_calls": (calls("exprlang.parse"), "count"),
            "exprlang.eval_calls": (calls("exprlang.eval"), "count"),
            "exprlang.eval_s": (incl("exprlang.eval"), "s"),
        }
        for layer in LAYERS:
            name = "cli.self_s" if layer == "cli" else f"{layer}.layer_self_s"
            m[name] = (self_of(lambda n, p=layer + ".": n.startswith(p)), "s")
        return m
