"""Span tracing of confeyn from the outside, and the per-layer metrics.

``Tracer.install`` replaces selected public functions and methods of the
``confeyn`` modules (and the two private steps the layer metrics name,
``BirkhoffPair._prepare`` and ``HopfAlgebra._antipode_monomial``) with
wrappers.  A wrapper records a span (name, start, end, parent) in compact
in-memory arrays and adds its duration to per-name aggregates; its self time
is its duration minus that of its child spans.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import statistics
from array import array
from pathlib import Path

from jobs import cpu_clock as clock

SPAN_CAP = 2_000_000  # spans kept in memory per process; aggregates go on past it

# (module, attribute or Class.method, span name); hooks are attached below
SPANS = (
    ("specfun", "bessel_k", "specfun.bessel_k"),
    ("propagators", "gm_real", "propagators.gm_real"),
    ("propagators", "dirac_propagator", "propagators.dirac"),
    ("propagators", "boson_propagator", "propagators.boson"),
    ("gegenbauer", "gegenbauer_value", "gegenbauer.gegenbauer_value"),
    ("amplitude", "amplitude_truncated_eval", "amplitude.amplitude_truncated_eval"),
    ("amplitude", "edge_gegenbauer_expansion", "amplitude.edge_gegenbauer_expansion"),
    ("amplitude", "edge_gegenbauer_value", "amplitude.edge_gegenbauer_value"),
    ("amplitude", "taylor_term_coefficient", "amplitude.taylor_term_coefficient"),
    ("amplitude", "edge_taylor_value", "amplitude.edge_taylor_value"),
    ("exact", "SymbolicCoeff.bind", "exact.bind"),
    ("feyngraph", "FeynmanGraph.canonical_key", "feyngraph.canonical_key"),
    ("feyngraph", "FeynmanGraph.admissible_subgraphs", "feyngraph.admissible_subgraphs"),
    ("hopf", "HopfAlgebra.coproduct_generator", "hopf.coproduct_generator"),
    ("hopf", "HopfAlgebra.reduced_coproduct", "hopf.reduced_coproduct"),
    ("hopf", "HopfAlgebra.antipode", "hopf.antipode"),
    ("hopf", "HopfAlgebra._antipode_monomial", "hopf.antipode"),
    ("hopf", "HopfAlgebra.dynkin", "hopf.dynkin"),
    ("hopf", "HopfAlgebra.iterated_coproduct", "hopf.iterated_coproduct"),
    ("rotabaxter", "LaurentAlgebra.mul", "rotabaxter.laurent_mul"),
    ("rotabaxter", "laurent_T", "rotabaxter.laurent_T"),
    ("rotabaxter", "MultiLogAlgebra.mul", "rotabaxter.multilog_mul"),
    ("rotabaxter", "multi_T", "rotabaxter.multi_T"),
    ("birkhoff", "BirkhoffPair._prepare", "birkhoff.prepare"),
    ("birkhoff", "FrameCharacter.on_monomial", "birkhoff.frame_on_monomial"),
    ("cli", "main", "cli.main"),
    ("cli", "dumps_deterministic", "cli.dumps"),
)

# call counts only, no span: cheap, for very frequent or nested calls
COUNTED = (
    ("gegenbauer", "product_linearize", "gegenbauer.product_linearize"),
    ("gegenbauer", "chebyshev_to_gegenbauer", "gegenbauer.chebyshev_to_gegenbauer"),
    ("exact", "SymbolicCoeff.__add__", "exact.symbolic_add"),
    ("exact", "SymbolicCoeff.__mul__", "exact.symbolic_mul"),
    ("exact", "SymbolicCoeff.__rmul__", "exact.symbolic_mul"),
)

GEGEN_CACHES = ("_gegen_monomials", "_chebyshev_monomials", "_monomial_combo",
                "_reproject", "_product_combo")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list[list] = []  # [span index, child time] of open spans
        self.dropped = 0
        self.patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self.ids[name]

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        tr = self

        def traced(*args, **kwargs):
            token = before(args) if before else None
            stack = tr.stack
            parent = stack[-1][0] if stack else -1
            if len(tr.start) < SPAN_CAP:
                idx = len(tr.start)
                tr.start.append(0.0)
                tr.end.append(0.0)
                tr.name_id.append(nid)
                tr.parent.append(parent)
            else:
                idx = -1
                tr.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tr.calls[nid] += 1
                tr.total[nid] += dur
                tr.self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tr.start[idx] = t0
                    tr.end[idx] = t1
            if after:
                after(args, result, dur, token)
            return result
        return traced

    def counted(self, name: str, fn):
        tr = self

        def counting(*args, **kwargs):
            tr.counters[name] = tr.counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counting

    # -- installation ---------------------------------------------------------

    def install(self, C):
        hooks = _hooks(self, C)
        for mod, attr, name in SPANS:
            self._patch(C, mod, attr, lambda fn, name=name: self.span(name, fn, *hooks.get(
                name, (None, None))))
        for mod, attr, name in COUNTED:
            self._patch(C, mod, attr, lambda fn, name=name: self.counted(name, fn))

    def _patch(self, C, mod, attr, make):
        module = getattr(C, mod)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self.patches.append((cls, meth, raw))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name in vars(C):
            other = getattr(C, name)
            if other.__dict__.get(attr) is orig:
                setattr(other, attr, wrapped)
                self.patches.append((other, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self.patches):
            setattr(target, attr, orig)
        self.patches.clear()

    # -- output -----------------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": dict(zip(self.names, self.calls)),
                "total": dict(zip(self.names, self.total)),
                "self": dict(zip(self.names, self.self_time)),
                "counters": dict(self.counters)}

    def dump(self, path: Path, extra: dict | None = None):
        """Spans as four raw arrays (start, end: float64; name, parent: int32)
        in ``path.bin``, names and aggregates in ``path.json``."""
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.start, self.end, self.name_id, self.parent):
                arr.tofile(fh)
        doc = {"names": self.names, "spans": len(self.start), "dropped": self.dropped,
               "layout": ["start:f8", "end:f8", "name:i4", "parent:i4"],
               "aggregates": self.aggregates(), **(extra or {})}
        Path(f"{path}.json").write_text(json.dumps(doc))


def _hooks(tr: Tracer, C) -> dict:
    """before/after hooks that record the counts the layer metrics need."""
    specfun = C.specfun

    def bessel_branch(args, result, dur, _):
        nu, z = args[0], args[1]
        cfg = args[2] if len(args) > 2 and args[2] is not None else specfun.DEFAULT_BESSEL_CONFIG
        two_nu = 2 * nu
        if abs(two_nu - round(two_nu)) < 1e-12 and round(two_nu) % 2 == 1:
            branch = "half"
        elif z > cfg.crossover(nu):
            branch = "asym"
        else:
            branch = "series"
        tr.count(f"bessel_k.{branch}.calls")
        tr.count(f"bessel_k.{branch}.s", dur)

    def admissible(args, result, dur, _):
        edges = len(args[0].internal_edge_indices())
        tr.count("feyngraph.subsets_examined", max(0, 2 ** edges - 2))
        tr.count("feyngraph.subsets_admitted", len(result))

    def entries(args, result, dur, _):
        tr.count("amplitude.tensor_entries", len(result.plain) + len(result.log_rho))

    def memo_size(attr):
        return lambda args: len(getattr(args[0], attr))

    def memo_growth(key, attr):
        def after(args, result, dur, before):
            tr.count(key, len(getattr(args[0], attr)) - before)
        return after

    def output_bytes(args, result, dur, _):
        tr.count("cli.output_bytes", len(result))

    return {
        "specfun.bessel_k": (None, bessel_branch),
        "feyngraph.admissible_subgraphs": (None, admissible),
        "amplitude.edge_gegenbauer_expansion": (None, entries),
        "hopf.coproduct_generator": (memo_size("_coproduct_gen"),
                                     memo_growth("hopf.coproduct_generator_distinct",
                                                 "_coproduct_gen")),
        "birkhoff.prepare": (memo_size("_prepared"),
                             memo_growth("birkhoff.prepared_distinct", "_prepared")),
        "cli.dumps": (None, output_bytes),
    }


def gegen_cache_stats(C) -> dict:
    hits = misses = 0
    for name in GEGEN_CACHES:
        info = getattr(C.gegenbauer, name).cache_info()
        hits += info.hits
        misses += info.misses
    return {"hits": hits, "misses": misses}


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates and cache statistics of several processes."""
    out = {"calls": {}, "total": {}, "self": {}, "counters": {}, "cache": {"hits": 0,
                                                                           "misses": 0}}
    for part in parts:
        for section in ("calls", "total", "self", "counters"):
            for k, v in part["aggregates"][section].items():
                out[section][k] = out[section].get(k, 0) + v
        for k in ("hits", "misses"):
            out["cache"][k] += part["cache"][k]
    return out


# name -> (unit, better); the README says which end-to-end metric each moves
PER_LAYER = {
    "specfun.bessel_k_calls": ("count", "lower"),
    "specfun.bessel_k_s": ("s", "lower"),
    "specfun.bessel_k_half_us": ("us", "lower"),
    "specfun.bessel_k_series_us": ("us", "lower"),
    "specfun.bessel_k_asym_us": ("us", "lower"),
    "propagators.gm_real_us": ("us", "lower"),
    "propagators.dirac_us": ("us", "lower"),
    "propagators.boson_us": ("us", "lower"),
    "gegenbauer.gegenbauer_value_calls": ("count", "lower"),
    "gegenbauer.gegenbauer_value_s": ("s", "lower"),
    "gegenbauer.product_linearize_calls": ("count", "lower"),
    "gegenbauer.chebyshev_to_gegenbauer_calls": ("count", "lower"),
    "gegenbauer.cache_hit_ratio": ("ratio", "higher"),
    "amplitude.edge_gegenbauer_expansion_s": ("s", "lower"),
    "amplitude.tensor_entries": ("count", "lower"),
    "amplitude.edge_gegenbauer_value_us": ("us", "lower"),
    "amplitude.taylor_term_coefficient_calls": ("count", "lower"),
    "amplitude.taylor_term_coefficient_s": ("s", "lower"),
    "amplitude.edge_taylor_value_us": ("us", "lower"),
    "exact.bind_calls": ("count", "lower"),
    "exact.bind_s": ("s", "lower"),
    "exact.symbolic_add_calls": ("count", "lower"),
    "exact.symbolic_mul_calls": ("count", "lower"),
    "feyngraph.canonical_key_calls": ("count", "lower"),
    "feyngraph.canonical_key_s": ("s", "lower"),
    "feyngraph.admissible_subgraphs_s": ("s", "lower"),
    "feyngraph.subsets_examined": ("count", "lower"),
    "feyngraph.subsets_admitted": ("count", "higher"),
    "feyngraph.admit_ratio": ("ratio", "higher"),
    "hopf.coproduct_generator_calls": ("count", "lower"),
    "hopf.coproduct_generator_distinct": ("count", "lower"),
    "hopf.reduced_coproduct_s": ("s", "lower"),
    "hopf.antipode_s": ("s", "lower"),
    "hopf.dynkin_s": ("s", "lower"),
    "hopf.iterated_coproduct_calls": ("count", "lower"),
    "hopf.iterated_coproduct_s": ("s", "lower"),
    "rotabaxter.laurent_mul_calls": ("count", "lower"),
    "rotabaxter.laurent_mul_s": ("s", "lower"),
    "rotabaxter.laurent_T_s": ("s", "lower"),
    "rotabaxter.multilog_mul_calls": ("count", "lower"),
    "rotabaxter.multilog_mul_s": ("s", "lower"),
    "rotabaxter.multi_T_s": ("s", "lower"),
    "birkhoff.prepare_calls": ("count", "lower"),
    "birkhoff.prepared_distinct": ("count", "lower"),
    "birkhoff.frame_on_monomial_s": ("s", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.dumps_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
}


def layer_values(agg: dict, import_ms: list[float]) -> dict[str, float]:
    calls, total, self_t, cnt = agg["calls"], agg["total"], agg["self"], agg["counters"]

    def per_call_us(name):
        return 1e6 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def branch_us(branch):
        n = cnt.get(f"bessel_k.{branch}.calls", 0)
        return 1e6 * cnt.get(f"bessel_k.{branch}.s", 0.0) / n if n else 0.0

    examined = cnt.get("feyngraph.subsets_examined", 0)
    admitted = cnt.get("feyngraph.subsets_admitted", 0)
    looked_up = agg["cache"]["hits"] + agg["cache"]["misses"]
    v = {
        "specfun.bessel_k_calls": calls.get("specfun.bessel_k", 0),
        "specfun.bessel_k_s": self_t.get("specfun.bessel_k", 0.0),
        "specfun.bessel_k_half_us": branch_us("half"),
        "specfun.bessel_k_series_us": branch_us("series"),
        "specfun.bessel_k_asym_us": branch_us("asym"),
        "propagators.gm_real_us": per_call_us("propagators.gm_real"),
        "propagators.dirac_us": per_call_us("propagators.dirac"),
        "propagators.boson_us": per_call_us("propagators.boson"),
        "gegenbauer.gegenbauer_value_calls": calls.get("gegenbauer.gegenbauer_value", 0),
        "gegenbauer.gegenbauer_value_s": self_t.get("gegenbauer.gegenbauer_value", 0.0),
        "gegenbauer.product_linearize_calls": cnt.get("gegenbauer.product_linearize", 0),
        "gegenbauer.chebyshev_to_gegenbauer_calls":
            cnt.get("gegenbauer.chebyshev_to_gegenbauer", 0),
        "gegenbauer.cache_hit_ratio": agg["cache"]["hits"] / looked_up if looked_up else 0.0,
        "amplitude.edge_gegenbauer_expansion_s":
            total.get("amplitude.edge_gegenbauer_expansion", 0.0),
        "amplitude.tensor_entries": cnt.get("amplitude.tensor_entries", 0),
        "amplitude.edge_gegenbauer_value_us": per_call_us("amplitude.edge_gegenbauer_value"),
        "amplitude.taylor_term_coefficient_calls":
            calls.get("amplitude.taylor_term_coefficient", 0),
        "amplitude.taylor_term_coefficient_s":
            self_t.get("amplitude.taylor_term_coefficient", 0.0),
        "amplitude.edge_taylor_value_us": per_call_us("amplitude.edge_taylor_value"),
        "exact.bind_calls": calls.get("exact.bind", 0),
        "exact.bind_s": self_t.get("exact.bind", 0.0),
        "exact.symbolic_add_calls": cnt.get("exact.symbolic_add", 0),
        "exact.symbolic_mul_calls": cnt.get("exact.symbolic_mul", 0),
        "feyngraph.canonical_key_calls": calls.get("feyngraph.canonical_key", 0),
        "feyngraph.canonical_key_s": self_t.get("feyngraph.canonical_key", 0.0),
        "feyngraph.admissible_subgraphs_s": self_t.get("feyngraph.admissible_subgraphs", 0.0),
        "feyngraph.subsets_examined": examined,
        "feyngraph.subsets_admitted": admitted,
        "feyngraph.admit_ratio": admitted / examined if examined else 0.0,
        "hopf.coproduct_generator_calls": calls.get("hopf.coproduct_generator", 0),
        "hopf.coproduct_generator_distinct": cnt.get("hopf.coproduct_generator_distinct", 0),
        "hopf.reduced_coproduct_s": self_t.get("hopf.reduced_coproduct", 0.0),
        "hopf.antipode_s": self_t.get("hopf.antipode", 0.0),
        "hopf.dynkin_s": self_t.get("hopf.dynkin", 0.0),
        "hopf.iterated_coproduct_calls": calls.get("hopf.iterated_coproduct", 0),
        "hopf.iterated_coproduct_s": self_t.get("hopf.iterated_coproduct", 0.0),
        "rotabaxter.laurent_mul_calls": calls.get("rotabaxter.laurent_mul", 0),
        "rotabaxter.laurent_mul_s": self_t.get("rotabaxter.laurent_mul", 0.0),
        "rotabaxter.laurent_T_s": self_t.get("rotabaxter.laurent_T", 0.0),
        "rotabaxter.multilog_mul_calls": calls.get("rotabaxter.multilog_mul", 0),
        "rotabaxter.multilog_mul_s": self_t.get("rotabaxter.multilog_mul", 0.0),
        "rotabaxter.multi_T_s": self_t.get("rotabaxter.multi_T", 0.0),
        "birkhoff.prepare_calls": calls.get("birkhoff.prepare", 0),
        "birkhoff.prepared_distinct": cnt.get("birkhoff.prepared_distinct", 0),
        "birkhoff.frame_on_monomial_s": self_t.get("birkhoff.frame_on_monomial", 0.0),
        "cli.import_ms": statistics.median(import_ms) if import_ms else 0.0,
        "cli.dumps_s": self_t.get("cli.dumps", 0.0),
        "cli.output_bytes": cnt.get("cli.output_bytes", 0),
    }
    assert set(v) == set(PER_LAYER)
    return v
