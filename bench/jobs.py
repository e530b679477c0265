"""Seeded inputs and timed jobs of the confeyn benchmark.

A job owns one slice of the benchmark: ``setup()`` makes its inputs and pays
its one-time warm-up, ``round()`` runs one whole round of its operations and
records their timings and outputs.  Every round of a job repeats the same
operations on the same inputs, so rounds can be compared with each other
and the outputs of the first round stand for all of them.

Each job comes in two sizes: ``full`` when it is the workload's own job and
``probe`` when it rides along in another workload so that every end-to-end
metric is measured on every workload.

A job times its operations and keeps each time twice: as measured, and put
on the nominal host by the ``HostMeter`` samples taken next to it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("exact", "specfun", "gegenbauer", "propagators", "feyngraph",
           "amplitude", "hopf", "rotabaxter", "birkhoff", "cli")

# in-process work is timed in CPU seconds of this single-threaded process, which
# leaves out the time the host gives to other processes; CLI children and
# run lengths are timed on the wall clock
cpu_clock = time.process_time
wall_clock = time.perf_counter


class Confeyn:
    """The confeyn modules of one import, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"confeyn.{name}"))


def load_confeyn() -> Confeyn:
    """Import confeyn afresh: drop earlier imports so that module state and
    the lru caches start cold, as they do for a new user process."""
    for name in [m for m in sys.modules if m == "confeyn" or m.startswith("confeyn.")]:
        del sys.modules[name]
    return Confeyn()


def sub_rng(seed: int, *tags) -> random.Random:
    return random.Random(json.dumps([seed, *tags]))


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The nominal host: one reference slice takes this many CPU seconds, one
# reference child this many seconds of wall time.  The end-to-end times are
# given as they would read on that host; changing a reference or its figure
# re-bases the end-to-end metrics.
REF_SLICE_NOMINAL_S = 0.0022
REF_CHILD_NOMINAL_S = 0.17
REF_CHILD = ("-c", "import argparse, dataclasses, decimal, email.parser, fractions, "
             "http.client, json, statistics, typing, unittest, xml.etree.ElementTree")


def reference_slice() -> int:
    """A fixed piece of interpreter work that calls no confeyn code: integer,
    float and Fraction arithmetic, tuples, lists and a dict."""
    acc, q, f, table = 0, Fraction(0), 0.0, {}
    for i in range(200):
        for j in range(20):
            acc += (i * j) ^ (acc & 0xFFFF)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(str(acc & 0xFFFFF))
        q += Fraction(i % 7 + 1, i % 11 + 2)
        f += math.exp(-(i % 50) / 10.0) * math.log1p(i) + sum([k * 0.5 for k in range(10)])
    return acc + len(table) + q.numerator + int(f)


def timed_slice() -> float:
    t0 = cpu_clock()
    reference_slice()
    return cpu_clock() - t0


def timed_child() -> float:
    """Wall time of a fresh interpreter that imports standard-library modules,
    much as a CLI invocation starts up, and calls no confeyn code."""
    t0 = wall_clock()
    subprocess.run([sys.executable, *REF_CHILD], capture_output=True, check=True, timeout=60)
    return wall_clock() - t0


class HostMeter:
    """The speed the host gives a run, from reference samples taken between
    its operations.

    The host is shared: the same code runs up to 1.5 times slower for
    stretches of seconds to minutes, which no run length averages out, and
    process start-up varies more still.  Samples are taken outside the timed
    operations: at the ends of a timed span of operations (``mark``) and at
    most every ``every_s`` seconds between its operations (``poll``), so they
    see the same stretches of time as the operations do.  ``every_s=None``
    turns the meter off: it takes no samples and every scale is 1."""

    def __init__(self, sample=timed_slice, nominal_s: float = REF_SLICE_NOMINAL_S,
                 every_s: float | None = 0.05):
        self.sample = sample
        self.nominal_s = nominal_s
        self.every_s = every_s  # None: never take a sample
        self.samples: list[float] = []
        self.due = 0.0

    @classmethod
    def children(cls, on: bool = True) -> HostMeter:
        """Reference children, taken by ``mark`` alone."""
        return cls(timed_child, REF_CHILD_NOMINAL_S, 0.0 if on else None)

    def mark(self) -> int:
        """Take a sample now; its index starts or ends a span of samples."""
        if self.every_s is not None:
            self.samples.append(self.sample())
            self.due = wall_clock() + self.every_s
        return len(self.samples) - 1

    def poll(self):
        if self.every_s is not None and wall_clock() >= self.due:
            self.mark()

    def scale(self, since: int = 0) -> float:
        """Nominal over median time of the samples from index ``since`` on: a
        time measured among them reads as on the nominal host when multiplied
        by it."""
        if self.every_s is None:
            return 1.0
        return self.nominal_s / median(self.samples[since:])


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------

# name -> (internal vertices, internal edges, radial level of each vertex).
# Adjacent vertices sit on different levels, so every edge has r/rho < 1.
AMP_GRAPHS = {
    "banana2": (2, [(0, 1), (0, 1)], [0, 1]),
    "banana3": (2, [(0, 1), (0, 1), (0, 1)], [0, 1]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2]),
    "square": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 0, 1]),
    "doubled_triangle": (3, [(0, 1), (0, 1), (0, 2), (2, 1)], [0, 1, 2]),
}

# (D, separation, mass) of the K_nu defect window: integer nu = D/2 - 1 >= 5
# with 46 < m r < 2 nu^2, where the 80-term series of specfun.bessel_k has
# not converged.  Fixed, not seeded.
DEFECT_SLICE = ((12, 47.0, 1.0), (12, 48.0, 1.0), (16, 60.0, 1.0), (16, 80.0, 1.0))

AMP_SIZES = {
    # full: every graph in every dimension, twice over; probe: six amplitudes
    "full": {"cases": [(g, D) for g in AMP_GRAPHS for D in (3, 4, 6)] * 2,
             "far": [4, 6], "defect": True, "radial": 12, "ell_max": 6},
    "probe": {"cases": [*zip(AMP_GRAPHS, (3, 4, 6, 3, 4)), ("triangle", 3)],
              "far": [4, 6], "defect": False, "radial": 10, "ell_max": 4},
}


def _direction(rng: random.Random, D: int) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(D)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return [c / n for c in v]


def make_amplitude_inputs(seed: int, size: str) -> dict:
    """Amplitude cases, far-field and defect amplitudes, and kernel points
    (the separation and mass of the first edge of each case).

    Vertex norms shrink by a factor 0.12-0.25 (jittered by 5%) from one
    radial level to the next, so every edge has r/rho <= 0.28; masses lie in
    [0.6, 1.4], so m r stays below about 2.5.
    """
    spec = AMP_SIZES[size]
    rng = sub_rng(seed, "amplitude", size)
    cases = []
    for name, D in spec["cases"]:
        nv, edges, levels = AMP_GRAPHS[name]
        norms = [rng.uniform(0.8, 1.2)]
        for _ in range(max(levels)):
            norms.append(norms[-1] * rng.uniform(0.12, 0.25))
        pos = {v: [norms[levels[v]] * rng.uniform(0.95, 1.05) * c
                   for c in _direction(rng, D)] for v in range(nv)}
        masses = {i: rng.uniform(0.6, 1.4) for i in range(len(edges))}
        cases.append({"graph": name, "D": D, "pos": pos, "masses": masses})
    far = []
    for D in spec["far"]:
        m = rng.uniform(0.8, 1.2)
        sep = rng.uniform(12.0, 25.0) / m
        x0 = _direction(rng, D)
        x1 = [a + sep * b for a, b in zip(x0, _direction(rng, D))]
        far.append({"graph": "banana2", "D": D, "pos": {0: x0, 1: x1},
                    "masses": {0: m, 1: m}})
    defect = []
    if spec["defect"]:
        for D, sep, m in DEFECT_SLICE:
            defect.append({"graph": "banana2", "D": D,
                           "pos": {0: [0.0] * D, 1: [sep] + [0.0] * (D - 1)},
                           "masses": {0: m, 1: m}})
    kernels = []
    for case in cases:
        a, b = AMP_GRAPHS[case["graph"]][1][0]
        D = case["D"]
        kernels.append({"D": D, "x": [p - q for p, q in zip(case["pos"][a], case["pos"][b])],
                        "m": case["masses"][0], "alpha": rng.uniform(1.2, 2.0),
                        "mu": rng.randrange(D), "nu": rng.randrange(D)})
    return {"cases": cases, "far": far, "defect": defect, "kernels": kernels,
            "radial": spec["radial"], "ell_max": spec["ell_max"]}


class AmplitudeJob:
    """Real massive amplitudes by direct, gegenbauer and taylor evaluation,
    and the Dirac and boson kernels at the same separations."""

    name = "amplitude"

    def __init__(self, C: Confeyn, seed: int, size: str, meter: HostMeter | None = None):
        self.C = C
        self.seed = seed
        self.size = size
        self.meter = meter or HostMeter(every_s=None)
        self.seconds = {"direct": 0.0, "gegenbauer": 0.0, "taylor": 0.0, "kernel": 0.0}
        self.nominal = dict(self.seconds)
        self.done = dict.fromkeys(self.seconds, 0)
        self.outputs: list[dict] = []

    def setup(self):
        C = self.C
        self.inputs = inp = make_amplitude_inputs(self.seed, self.size)
        self.orders = C.amplitude.TruncationOrders(radial=inp["radial"],
                                                   ell_max=inp["ell_max"])
        graphs = {n: C.feyngraph.FeynmanGraph.build(nv, e)
                  for n, (nv, e, _) in AMP_GRAPHS.items()}
        self.direct_ops = [self._amp_op(graphs, c, "direct", kind)
                           for kind, group in (("main", inp["cases"]), ("far", inp["far"]),
                                               ("defect", inp["defect"]))
                           for c in group]
        self.gegen_ops = [self._amp_op(graphs, c, "gegenbauer", "main") for c in inp["cases"]]
        self.taylor_ops = [self._amp_op(graphs, c, "taylor", "main") for c in inp["cases"]]
        self.kernel_ops = []
        P = C.propagators
        for k in inp["kernels"]:
            kin = P.Kinematics(k["D"], tuple(k["x"]), k["m"])
            if k["D"] % 2 == 0:
                self.kernel_ops.append(({"method": "dirac", "kind": "kernel", **k},
                                        lambda kin=kin: P.dirac_propagator(kin)))
            self.kernel_ops.append(({"method": "boson", "kind": "kernel", **k},
                                    lambda kin=kin, k=k: P.boson_propagator(
                                        kin, k["alpha"], k["mu"], k["nu"])))
        # one-time warm-up: the Gegenbauer tensors of every weight in the batch
        geom = C.amplitude.EdgeGeometry(1.0, 0.5, 0.3)
        for lam in sorted({Fraction(c["D"] - 2, 2) for c in inp["cases"]}):
            C.amplitude.edge_gegenbauer_value(lam, geom, 1.0, self.orders)

    def _amp_op(self, graphs, case, method, kind):
        amp = self.C.amplitude
        lam = Fraction(case["D"] - 2, 2)
        graph = graphs[case["graph"]]

        def op():
            return amp.amplitude_truncated_eval(graph, case["pos"], case["masses"], lam,
                                                method=method, orders=self.orders)
        return ({"method": method, "kind": kind, **case}, op)

    def ops_per_round(self) -> int:
        return (len(self.direct_ops) + len(self.gegen_ops) + len(self.taylor_ops)
                + len(self.kernel_ops))

    def round(self) -> list:
        values = []
        for key, ops in (("direct", self.direct_ops), ("gegenbauer", self.gegen_ops),
                         ("taylor", self.taylor_ops), ("kernel", self.kernel_ops)):
            start = self.meter.mark()
            seconds = 0.0
            for _, op in ops:
                t0 = cpu_clock()
                values.append(_guarded(op))
                seconds += cpu_clock() - t0
                self.meter.poll()
            self.meter.mark()
            self.seconds[key] += seconds
            self.nominal[key] += seconds * self.meter.scale(start)
            self.done[key] += len(ops)
        if not self.outputs:
            specs = [s for ops in (self.direct_ops, self.gegen_ops, self.taylor_ops,
                                   self.kernel_ops) for s, _ in ops]
            self.outputs = [{"spec": s, "value": _plain(v)} for s, v in zip(specs, values)]
        return [_plain(v) for v in values]

    def metrics(self, nominal: bool = True) -> dict:
        """Operations per second, over all rounds, on the nominal host or as
        measured."""
        seconds = self.nominal if nominal else self.seconds

        def rate(key):
            return self.done[key] / seconds[key]
        return {"amp_direct_per_s": rate("direct"), "amp_gegen_per_s": rate("gegenbauer"),
                "amp_taylor_per_s": rate("taylor"), "prop_kernel_per_s": rate("kernel")}


def _guarded(op):
    try:
        return op()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _plain(v):
    """Outputs as plain data (floats, dicts), comparable across rounds."""
    if hasattr(v, "a") and hasattr(v, "b"):
        return {"a": v.a, "b": v.b}
    return v


# ---------------------------------------------------------------------------
# renorm
# ---------------------------------------------------------------------------

DENSE_GRAPHS = {
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K33": (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    "wheel5": (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
}

RENORM_SIZES = {
    "full": {"family": 4, "necklaces": (3, 4, 5, 6), "dense": tuple(DENSE_GRAPHS),
             "frame_degree": 8},
    "probe": {"family": 3, "necklaces": (3,), "dense": ("K4",), "frame_degree": 6},
}


def necklace_edges(k: int) -> list[tuple[int, int]]:
    """A ring of k bananas: each pair of neighbouring vertices joined twice."""
    return [(i, (i + 1) % k) for i in range(k) for _ in range(2)]


def make_renorm_inputs(C: Confeyn, seed: int, size: str) -> list[tuple[str, object]]:
    """The graph set: generate_graph_family with legs, necklaces of bananas
    and a few denser graphs, each of these with two external legs on
    neighbouring vertices.  The seed relabels vertices and reorders edges:
    the graphs, and so the work, are the same up to isomorphism for every
    seed (where the legs sit changes the symmetry, and with it the work)."""
    spec = RENORM_SIZES[size]
    rng = sub_rng(seed, "renorm", size)
    FG = C.feyngraph.FeynmanGraph
    out = [(f"family{i}", g) for i, g in
           enumerate(C.hopf.generate_graph_family(spec["family"], with_legs=True))]
    shapes = [(f"necklace{k}", k, necklace_edges(k)) for k in spec["necklaces"]]
    shapes += [(name, *DENSE_GRAPHS[name]) for name in spec["dense"]]
    for name, nv, edges in shapes:
        legs = [edges[0][0], edges[0][1]]
        perm = list(range(nv))
        rng.shuffle(perm)
        relabelled = [(perm[a], perm[b]) for a, b in edges]
        rng.shuffle(relabelled)
        out.append((name, FG.build(nv, relabelled, legs=[perm[v] for v in legs])))
    return out


def laurent_rule(C: Confeyn, seed: int):
    """Seeded Laurent values per isomorphism class, with poles of order <= 2."""
    LS = C.rotabaxter.LaurentSeries

    def rule(g):
        r = random.Random(json.dumps([seed, "phi", g.canonical_key()]))
        coeffs = {e: Fraction(r.randint(-6, 6), r.randint(1, 5)) for e in range(-2, 3)}
        if not coeffs[-1] and not coeffs[-2]:
            coeffs[-1] = Fraction(1)
        return LS(coeffs)
    return rule


class RenormJob:
    """Birkhoff factorization of a graph set into both Rota-Baxter targets,
    then the beta function and the universal-frame reconstruction of phi_-."""

    name = "renorm"

    def __init__(self, C: Confeyn, seed: int, size: str, meter: HostMeter | None = None):
        self.C = C
        self.seed = seed
        self.size = size
        self.meter = meter or HostMeter(every_s=None)
        self.seconds = {"laurent": 0.0, "logform": 0.0, "beta_frame": 0.0}
        self.nominal = dict(self.seconds)
        self.rounds = 0
        self.outputs: dict = {}

    def setup(self):
        spec = RENORM_SIZES[self.size]
        self.frame_degree = spec["frame_degree"]
        self.graph_docs = [(n, g.to_json()) for n, g in
                           make_renorm_inputs(self.C, self.seed, self.size)]
        self.rule = laurent_rule(self.C, self.seed)
        self.rule_seed = sub_rng(self.seed, "toy").randrange(1000)
        self.n_vertices = max(len(g["vertices"]) for _, g in self.graph_docs)

    def _fresh_graphs(self):
        FG = self.C.feyngraph.FeynmanGraph
        return [(n, FG.from_json(doc)) for n, doc in self.graph_docs]

    def ops_per_round(self) -> int:
        framed = sum(1 for _, doc in self.graph_docs
                     if sum(e["internal"] for e in doc["edges"]) <= self.frame_degree)
        return 2 * len(self.graph_docs) + 2 * framed

    def round(self) -> list:
        C = self.C
        B = C.birkhoff
        graphs = self._fresh_graphs()

        hopf = C.hopf.HopfAlgebra()
        pair = B.birkhoff_factorize(B.Character(hopf, C.rotabaxter.LaurentAlgebra(),
                                                self.rule))
        laurent = self._timed("laurent", graphs,
                              lambda g: (pair.phi_minus(g), pair.phi_plus(g)))

        beta = B.beta_function(pair)
        frame = B.universal_frame(beta)
        framed = self._timed("beta_frame",
                             [(n, g) for n, g in graphs if g.degree() <= self.frame_degree],
                             lambda g: (beta(g), frame.on_monomial(C.hopf.monomial(g))))

        log_graphs = self._fresh_graphs()
        log_hopf = C.hopf.HopfAlgebra()
        log_pair = B.birkhoff_factorize(B.toy_feynman_character(
            log_hopf, self.n_vertices, 1, self.rule_seed))
        logform = self._timed("logform", log_graphs,
                              lambda g: (log_pair.phi_minus(g), log_pair.phi_plus(g)))

        self.rounds += 1
        values = {"laurent": laurent, "beta_frame": framed, "logform": logform}
        if not self.outputs:
            self.outputs = {"graphs": graphs, "log_graphs": log_graphs, "pair": pair,
                            "log_pair": log_pair, "hopf": hopf, "log_hopf": log_hopf,
                            "frame_degree": self.frame_degree, **values}
        return [(repr(a), repr(b)) for key in ("laurent", "beta_frame") for a, b in values[key]] \
            + [(a.to_json(), b.to_json()) for a, b in logform]

    def _timed(self, key, graphs, op) -> list:
        start = self.meter.mark()
        out, seconds = [], 0.0
        for _, g in graphs:
            t0 = cpu_clock()
            out.append(op(g))
            seconds += cpu_clock() - t0
            self.meter.poll()
        self.meter.mark()
        self.seconds[key] += seconds
        self.nominal[key] += seconds * self.meter.scale(start)
        return out

    def metrics(self, nominal: bool = True) -> dict:
        """Seconds for the whole graph set, averaged over the rounds, on the
        nominal host or as measured."""
        seconds = self.nominal if nominal else self.seconds
        return {f"renorm_{k}_s": v / self.rounds for k, v in seconds.items()}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Heavy invocations: prop-expand --method gegenbauer at radial orders 24-40.
# They are fixed, because their cost depends steeply on (D, ell, radial).
HEAVY_FULL = (("4", "1", 32), ("3", "3/2", 24), ("4", "-1", 40))
HEAVY_PROBE = (("4", "0", 16),)

CLI_SMALL_GRAPHS = {
    "banana": (2, [(0, 1), (0, 1)], []),
    "banana_leg": (2, [(0, 1), (0, 1)], [0]),
    "banana3": (2, [(0, 1), (0, 1), (0, 1)], [0, 1]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], [0]),
}


def _prop_eval(rng: random.Random, kind: str) -> list[str]:
    if kind == "dirac":
        D = rng.choice([4, 6])
    else:
        D = rng.choice([3, 4, 6])
    m = round(rng.uniform(0.5, 2.0), 3)
    if kind == "boson":
        x = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(D)]
        x[0] = round(rng.uniform(0.5, 1.5), 3)
        return ["prop-eval", "--D", str(D), "--m", str(m), "--x", ",".join(map(str, x)),
                "--kind", "boson", "--alpha", str(round(rng.uniform(1.2, 2.0), 3)),
                "--mu", str(rng.randrange(D)), "--nu", str(rng.randrange(D))]
    r = round(rng.uniform(0.3, 4.0), 3)
    return ["prop-eval", "--D", str(D), "--m", str(m), "--r", str(r), "--kind", kind]


def make_cli_jobs(seed: int, size: str, workdir: Path) -> list[dict]:
    """The job mix: light commands with seeded arguments, in a seeded order,
    and the heavy prop-expand commands."""
    rng = sub_rng(seed, "cli", size)
    graphs = workdir / "graphs.json"
    phi = workdir / "phi.json"
    renorm = {"laurent": ["renorm", "--target", "laurent", "--graphs", str(graphs),
                          "--phi", str(phi)],
              "logform": ["renorm", "--target", "logform", "--graphs", str(graphs),
                          "--seed", str(rng.randrange(100))]}
    light: list[list[str]] = []
    if size == "full":
        # nine light commands: the subcommand of each slot is fixed, its kind,
        # operation and arguments are drawn
        for kind in ("gm", rng.choice(["gm-complex", "dirac"]), "boson"):
            light.append(_prop_eval(rng, kind))
        lam = rng.choice(["1/2", "1", "3/2", "2"])
        gegen = {"monomial": ["--m", str(rng.randint(2, 8))],
                 "product": ["--n", str(rng.randint(1, 5)), "--m", str(rng.randint(1, 5))],
                 "chebyshev": ["--n", str(rng.randint(2, 8))],
                 "coeffs": ["--n", str(rng.randint(2, 8))]}
        for op in rng.sample(sorted(gegen), 2):
            light.append(["gegen", "--op", op, "--lambda", lam] + gegen[op])
        light += [
            ["divisors", "--n", str(rng.randint(2, 4)), "--k", str(rng.randint(0, 2))],
            [rng.choice(["graph-coproduct", "graph-antipode"]), "--graphs", str(graphs)],
            renorm[rng.choice(["laurent", "logform"])],
            ["beta", "--target", "logform", "--graphs", str(graphs),
             "--seed", str(rng.randrange(100)), "--degree", "3"],
        ]
        heavy = HEAVY_FULL
    else:
        light.append(_prop_eval(rng, "gm"))
        heavy = HEAVY_PROBE
    jobs = [{"argv": a, "heavy": False} for a in light]
    jobs += [{"argv": ["prop-expand", "--D", D, "--method", "gegenbauer", "--ell", ell,
                       "--radial", str(radial)], "heavy": True} for D, ell, radial in heavy]
    rng.shuffle(jobs)
    return jobs


def write_cli_inputs(seed: int, workdir: Path):
    """Graph file and Laurent values for the graph commands."""
    rng = sub_rng(seed, "cli-inputs")
    docs = []
    phi = {}
    for name, (nv, edges, legs) in CLI_SMALL_GRAPHS.items():
        vertices = [{"id": v, "external": False} for v in range(nv)]
        es = [{"src": a, "tgt": b, "internal": True} for a, b in edges]
        for i, anchor in enumerate(legs):
            vertices.append({"id": nv + i, "external": True})
            es.append({"src": anchor, "tgt": nv + i, "internal": False})
        docs.append({"name": name, "vertices": vertices, "edges": es})
        phi[name] = {str(e): f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}" for e in range(-2, 2)}
        phi[name]["-1"] = f"{rng.randint(1, 6)}/{rng.randint(1, 4)}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "graphs.json").write_text(json.dumps(docs))
    (workdir / "phi.json").write_text(json.dumps(phi))


class CliJob:
    """confeyn invocations, each in a fresh interpreter, one at a time."""

    name = "cli"

    def __init__(self, seed: int, size: str, workdir: Path, child_cmd,
                 meter: HostMeter | None = None, child_meter: HostMeter | None = None):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.child_cmd = child_cmd  # argv prefix that runs the confeyn CLI
        self.meter = meter or HostMeter(every_s=None)
        self.child_meter = child_meter or HostMeter.children(on=False)
        # measured and nominal: wall times of the light invocations, and the
        # sum of those of the heavy ones
        self.light_ms: dict[bool, list[float]] = {False: [], True: []}
        self.heavy_s = {False: 0.0, True: 0.0}
        self.rounds = 0
        self.outputs: list[dict] = []

    def setup(self):
        write_cli_inputs(self.seed, self.workdir)
        self.jobs = make_cli_jobs(self.seed, self.size, self.workdir)
        self.env = child_env()

    def ops_per_round(self) -> int:
        return len(self.jobs)

    def round(self) -> list:
        """Each invocation is put on the nominal host by the reference
        children just before and just after it."""
        results = []
        before = self.child_meter.mark()
        for job in self.jobs:
            t0 = wall_clock()
            proc = subprocess.run(self.child_cmd() + job["argv"], capture_output=True,
                                  env=self.env, cwd=self.workdir, timeout=120)
            dt = wall_clock() - t0
            after = self.child_meter.mark()
            for nominal, t in ((False, dt), (True, dt * self.child_meter.scale(before))):
                if job["heavy"]:
                    self.heavy_s[nominal] += t
                else:
                    self.light_ms[nominal].append(1e3 * t)
            before = after
            out, err = proc.stdout, proc.stderr
            results.append({"argv": job["argv"], "rc": proc.returncode,
                            "stdout": out.decode(), "stderr": err.decode()[-2000:]})
            self.meter.poll()
        self.rounds += 1
        if not self.outputs:
            self.outputs = results
        return [(r["rc"], r["stdout"]) for r in results]

    def metrics(self, nominal: bool = True) -> dict:
        """Median light invocation; heavy invocations of one round, averaged
        over the rounds; on the nominal host or as measured."""
        return {"cli_cmd_p50_ms": median(self.light_ms[nominal]),
                "cli_expand_s": self.heavy_s[nominal] / self.rounds}
