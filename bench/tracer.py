"""Per-layer spans recorded from outside the adlv package.

The tracer wraps the entry points of each layer (one layer per package
module) and keeps, per wrapped name, the call count, the inclusive time and
the self time (span time minus the time of wrapped calls made inside it).
Every wrapped call is a span, but spans are aggregated as they close rather
than stored one by one: the hot leaves (``WeylElt.mul``, ``affine_length``,
``IntervalEngine.step``, ...) run hundreds of thousands of times per pass.

Which names are wrapped:

- every public function of a layer module that another layer module
  imports, patched in the importing modules' namespaces (the package uses
  ``from .x import y``, so patching the home module alone would miss them);
- the named entry points in ``ENTRY_FUNCTIONS``, patched in every adlv
  namespace that binds them, the home module included, so calls inside the
  layer are counted too;
- the methods in ``ENTRY_METHODS``, patched on their class.

Time spent in an unwrapped callee (a private helper, a method of a value
class such as ``AffineElt.mul``, or a per-state method such as
``IntervalEngine.unpack``) is charged to the layer of the nearest wrapped
caller.  Per-state methods stay unwrapped because a wrapper per state would
multiply the traced time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "rootsys", "weyl", "affine", "qbg", "newton", "cover", "adm",
    "cascade", "cli",
)

# Functions wrapped in their home module as well as in every importer.
ENTRY_FUNCTIONS = {
    "rootsys": ("build_root_system", "coweight"),
    "weyl": ("enumerate_group",),
    "affine": (
        "affine_length", "bruhat_leq_affine", "cocovers_with_reflections",
        "lower_interval", "demazure_star", "demazure_rtri", "demazure_ltri",
    ),
    "qbg": ("build_qbg",),
    "newton": ("sweep_records",),
    "cover": ("predicted_cocovers",),
    "adm": ("adm_set", "product_set", "min_dgamma"),
    "cascade": ("compare_wt_r",),
    "cli": ("main", "run_suite", "run_query"),
}

# Methods wrapped on their class; None means every public method plus
# ``__init__`` defined on the class itself.
ENTRY_METHODS = {
    "weyl": {"GroupTable": None, "WeylElt": ("mul",)},
    "affine": {"IntervalEngine": ("__init__", "step", "interval_states")},
    "qbg": {"QBGraph": None},
}


class Stat:
    __slots__ = ("calls", "incl", "self", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0    # outermost activations only, so recursion counts once
        self.self = 0.0
        self.active = 0


class Tracer:
    """Wraps callables, aggregates their spans, and undoes its patches.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a synthetic clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self.seen: dict[str, set] = {}
        # one accumulator of wrapped-child time per open span; the bottom
        # one collects the time of top-level spans
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, observe=None):
        """A wrapper that runs ``fn`` as one span of ``layer`` named
        ``name``; ``observe(tracer, args, kwargs, result)`` records work
        counts after a call returns."""
        stat = self.stats.setdefault(name, Stat())
        self.layer_of[name] = layer
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat.active -= 1
                stat.calls += 1
                stat.self += dt - frame[0]
                if not stat.active:
                    stat.incl += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def distinct(self, key: str, item) -> None:
        self.seen.setdefault(key, set()).add(item)

    def attributed_s(self) -> float:
        """Total time of top-level spans, which the layer self times
        partition."""
        return self._stack[0][0]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[self.layer_of[name]] += st.self
        return out

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every binding ``patch`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch the layer entry points of the imported adlv package."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "adlv" or name.startswith("adlv."))
        }
        for layer in LAYERS:
            home = mods.get(f"adlv.{layer}")
            if home is None:
                continue
            entries = set(ENTRY_FUNCTIONS.get(layer, ()))
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not _is_layer_function(
                    fn, home.__name__
                ):
                    continue
                importers = [
                    m for m in mods.values()
                    if m is not home and vars(m).get(attr) is fn
                ]
                if attr in entries:
                    importers.append(home)
                if not importers:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(fn, layer, name, OBSERVERS.get(name))
                for m in importers:
                    self.patch(m, attr, wrapped)
            for cls_name, methods in ENTRY_METHODS.get(layer, {}).items():
                cls = getattr(home, cls_name, None)
                if cls is None:
                    continue
                if methods is None:
                    methods = [
                        a for a, v in vars(cls).items()
                        if inspect.isfunction(v)
                        and (a == "__init__" or not a.startswith("_"))
                    ]
                for attr in methods:
                    if attr not in vars(cls):
                        continue
                    qual = f"{cls_name}.{attr}"
                    wrapped = self.wrap(
                        vars(cls)[attr], layer, qual, OBSERVERS.get(qual)
                    )
                    self.patch(cls, attr, wrapped)


def _is_layer_function(obj, module_name: str) -> bool:
    """A plain or lru-cached function defined in ``module_name``."""
    if isinstance(obj, type) or getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(inspect.unwrap(obj))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# -- work counters: observe(tracer, args, kwargs, result) -------------------


def _obs_enumerate_group(tr, args, kwargs, result):
    key = id(result)
    hit = key in tr.seen.get("weyl.tables", ())
    tr.add("weyl.table_hits", 1 if hit else 0)
    tr.distinct("weyl.tables", key)


def _obs_rmult_root(tr, args, kwargs, result):
    table, root = args[0], _arg(args, kwargs, 1, "root_idx")
    tr.distinct("weyl.rmult_root_tables", (id(table), root))


def _obs_step(tr, args, kwargs, result):
    n_in = len(_arg(args, kwargs, 1, "states"))
    tr.add("affine.states_attempted", n_in)
    tr.add("affine.states_new", len(result) - n_in)
    tr.peak("affine.interval_peak_states", len(result))


def _obs_interval_states(tr, args, kwargs, result):
    tr.peak("affine.interval_peak_states", len(result))


def _obs_lower_interval(tr, args, kwargs, result):
    tr.add("affine.lower_interval_members", len(result.members))


def _obs_pairwise(tr, args, kwargs, result):
    graph, x = args[0], _arg(args, kwargs, 1, "x")
    tr.distinct("qbg.bfs_sources", (id(graph), x))


def _obs_sweep_records(tr, args, kwargs, result):
    tr.add("newton.sweep_records", len(result))


def _obs_predicted_cocovers(tr, args, kwargs, result):
    tr.add("cover.cocover_records", len(result.records))


def _obs_adm_set(tr, args, kwargs, result):
    tr.add("adm.members", len(result))


def _obs_product_set(tr, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tr.add("adm.product_pairs", len(a) * len(b))
    tr.add("adm.product_distinct", len(result))


def _obs_compare_wt_r(tr, args, kwargs, result):
    tr.add("cascade.involutions", result["involutions"])


OBSERVERS = {
    "weyl.enumerate_group": _obs_enumerate_group,
    "GroupTable.rmult_root": _obs_rmult_root,
    "IntervalEngine.step": _obs_step,
    "IntervalEngine.interval_states": _obs_interval_states,
    "affine.lower_interval": _obs_lower_interval,
    "QBGraph.wt": _obs_pairwise,
    "QBGraph.d_gamma": _obs_pairwise,
    "newton.sweep_records": _obs_sweep_records,
    "cover.predicted_cocovers": _obs_predicted_cocovers,
    "adm.adm_set": _obs_adm_set,
    "adm.product_set": _obs_product_set,
    "cascade.compare_wt_r": _obs_compare_wt_r,
}


# -- per-layer metrics -----------------------------------------------------

RATIO = "ratio"
COUNT = "count"
SECONDS = "s"

# name -> unit, in report order; every name is reported on every workload
LAYER_METRICS = {
    "weyl.table_build_s": SECONDS,
    "weyl.tables_built": COUNT,
    "weyl.table_cache_hit_ratio": RATIO,
    "weyl.rmult_root_tables": COUNT,
    "weyl.rmult_root_s": SECONDS,
    "weyl.prod_idx_calls": COUNT,
    "weyl.prod_idx_s": SECONDS,
    "weyl.mul_calls": COUNT,
    "weyl.mul_s": SECONDS,
    "weyl.self_s": SECONDS,
    "affine.interval_s": SECONDS,
    "affine.step_calls": COUNT,
    "affine.step_s": SECONDS,
    "affine.states_attempted": COUNT,
    "affine.states_new": COUNT,
    "affine.step_new_ratio": RATIO,
    "affine.interval_peak_states": COUNT,
    "affine.bruhat_calls": COUNT,
    "affine.bruhat_s": SECONDS,
    "affine.cocovers_s": SECONDS,
    "affine.lower_interval_s": SECONDS,
    "affine.lower_interval_members": COUNT,
    "affine.demazure_s": SECONDS,
    "affine.length_calls": COUNT,
    "affine.length_s": SECONDS,
    "affine.self_s": SECONDS,
    "qbg.build_s": SECONDS,
    "qbg.graphs_built": COUNT,
    "qbg.wt_calls": COUNT,
    "qbg.wt_s": SECONDS,
    "qbg.bfs_sources": COUNT,
    "qbg.wt1_s": SECONDS,
    "qbg.self_s": SECONDS,
    "newton.sweep_s": SECONDS,
    "newton.sweep_records": COUNT,
    "newton.self_s": SECONDS,
    "cover.predict_calls": COUNT,
    "cover.predict_s": SECONDS,
    "cover.cocover_records": COUNT,
    "cover.self_s": SECONDS,
    "adm.adm_set_calls": COUNT,
    "adm.adm_set_s": SECONDS,
    "adm.members": COUNT,
    "adm.product_s": SECONDS,
    "adm.product_pairs": COUNT,
    "adm.product_distinct_ratio": RATIO,
    "adm.min_dgamma_s": SECONDS,
    "adm.self_s": SECONDS,
    "cascade.compare_s": SECONDS,
    "cascade.involutions": COUNT,
    "cascade.self_s": SECONDS,
    "rootsys.coweight_calls": COUNT,
    "rootsys.self_s": SECONDS,
    "cli.suite_calls": COUNT,
    "cli.query_calls": COUNT,
    "cli.self_s": SECONDS,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS`` from one traced window."""
    st = tr.stats
    cnt = tr.counts

    def calls(*names):
        return sum(st[n].calls for n in names if n in st)

    def incl(*names):
        return sum(st[n].incl for n in names if n in st)

    eg_calls = calls("weyl.enumerate_group")
    pairs = cnt.get("adm.product_pairs", 0)
    attempted = cnt.get("affine.states_attempted", 0)
    m = {
        "weyl.table_build_s": incl("GroupTable.__init__"),
        "weyl.tables_built": calls("GroupTable.__init__"),
        "weyl.table_cache_hit_ratio": _ratio(
            cnt.get("weyl.table_hits", 0), eg_calls
        ),
        "weyl.rmult_root_tables": len(tr.seen.get("weyl.rmult_root_tables", ())),
        "weyl.rmult_root_s": incl("GroupTable.rmult_root"),
        "weyl.prod_idx_calls": calls("GroupTable.prod_idx"),
        "weyl.prod_idx_s": incl("GroupTable.prod_idx"),
        "weyl.mul_calls": calls("WeylElt.mul"),
        "weyl.mul_s": incl("WeylElt.mul"),
        "affine.interval_s": incl("IntervalEngine.interval_states"),
        "affine.step_calls": calls("IntervalEngine.step"),
        "affine.step_s": incl("IntervalEngine.step"),
        "affine.states_attempted": attempted,
        "affine.states_new": cnt.get("affine.states_new", 0),
        "affine.step_new_ratio": _ratio(
            cnt.get("affine.states_new", 0), attempted
        ),
        "affine.interval_peak_states": cnt.get("affine.interval_peak_states", 0),
        "affine.bruhat_calls": calls("affine.bruhat_leq_affine"),
        "affine.bruhat_s": incl("affine.bruhat_leq_affine"),
        "affine.cocovers_s": incl("affine.cocovers_with_reflections"),
        "affine.lower_interval_s": incl("affine.lower_interval"),
        "affine.lower_interval_members": cnt.get(
            "affine.lower_interval_members", 0
        ),
        "affine.demazure_s": incl(
            "affine.demazure_star", "affine.demazure_rtri",
            "affine.demazure_ltri",
        ),
        "affine.length_calls": calls("affine.affine_length"),
        "affine.length_s": incl("affine.affine_length"),
        "qbg.build_s": incl("QBGraph.__init__"),
        "qbg.graphs_built": calls("QBGraph.__init__"),
        "qbg.wt_calls": calls("QBGraph.wt", "QBGraph.d_gamma"),
        "qbg.wt_s": incl("QBGraph.wt", "QBGraph.d_gamma"),
        "qbg.bfs_sources": len(tr.seen.get("qbg.bfs_sources", ())),
        "qbg.wt1_s": incl("QBGraph.wt1"),
        "newton.sweep_s": incl("newton.sweep_records"),
        "newton.sweep_records": cnt.get("newton.sweep_records", 0),
        "cover.predict_calls": calls("cover.predicted_cocovers"),
        "cover.predict_s": incl("cover.predicted_cocovers"),
        "cover.cocover_records": cnt.get("cover.cocover_records", 0),
        "adm.adm_set_calls": calls("adm.adm_set"),
        "adm.adm_set_s": incl("adm.adm_set"),
        "adm.members": cnt.get("adm.members", 0),
        "adm.product_s": incl("adm.product_set"),
        "adm.product_pairs": pairs,
        "adm.product_distinct_ratio": _ratio(
            cnt.get("adm.product_distinct", 0), pairs
        ),
        "adm.min_dgamma_s": incl("adm.min_dgamma"),
        "cascade.compare_s": incl("cascade.compare_wt_r"),
        "cascade.involutions": cnt.get("cascade.involutions", 0),
        "rootsys.coweight_calls": calls("rootsys.coweight"),
        "cli.suite_calls": calls("cli.run_suite"),
        "cli.query_calls": calls("cli.run_query"),
    }
    for layer, s in tr.layer_self_s().items():
        m[f"{layer}.self_s"] = s
    return {name: m[name] for name in LAYER_METRICS}
