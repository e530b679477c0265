"""Batch command-line front end with deterministic JSON output.

Subcommands: prop-eval, prop-expand, gegen, graph-coproduct, graph-antipode,
renorm, beta, divisors.  Payloads are JSON files (or inline); output is JSON
with sorted keys, rationals as strings, and floats rendered with 17
significant digits, so identical inputs give byte-identical output.

Every size argument is at least 0 and has a documented maximum (the
``*_MAX_*`` constants below), checked by its argparse type as the argument is
parsed; the sizes of the graphs in a ``--graphs`` file are checked as the
file is loaded.

Exit codes: 0 success, 2 validation error, 3 numeric non-convergence,
64 unknown subcommand.

Each process runs one subcommand, and its start-up time is part of every
command's wall time.  So this module imports no other confeyn module at load
time; each handler imports only what it runs:

    prop-eval                     propagators (with specfun, exact and linear)
    prop-expand                   amplitude and specfun (with gegenbauer, exact, linear)
    gegen                         gegenbauer (with specfun, exact and linear)
    graph-coproduct, -antipode    hopf (with linear and feyngraph)
    renorm, beta                  birkhoff, hopf and rotabaxter (with linear, feyngraph)
    divisors                      rotabaxter (with linear)

The usage path and exit 64 load nothing beyond this module.  Handlers call
library functions as module attributes (``propagators.gm_real``), so a
wrapper installed on a module attribute sees the call.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: handlers import what they run
    from .birkhoff import BirkhoffPair, Character
    from .feyngraph import FeynmanGraph
    from .hopf import HopfAlgebra
    from .rotabaxter import LaurentSeries

SUBCOMMANDS = ("prop-eval", "prop-expand", "gegen", "graph-coproduct",
               "graph-antipode", "renorm", "beta", "divisors")

# Maxima of the size arguments; larger values exit 2.  The times are wall
# times of one CLI process at the maximum, start-up included, on a 2-core
# x86-64 host.  Rational arguments (--lambda, --ell) are capped in absolute
# value and in denominator: every gegen conversion is rational, and a weight
# only lengthens its numbers.
GEGEN_MAX_N = 256     # chebyshev 0.3 s; reproject (ell 3/2) 0.5 s at lambda 1,
                      # 0.6 s at 51/2, 0.7 s at 100001/2
GEGEN_MAX_M = 32      # product at n = 256: 0.6 s at lambda 1, 0.5 s at 51/2,
                      # 1.0 s at 100001/2
GEGEN_MAX_LAMBDA = 10 ** 6  # product at n = 256, m = 32: 0.8 s (0.9 s at 1999999/2);
                            # reproject 0.7 s, chebyshev 0.5 s
GEGEN_MAX_ELL = 10 ** 6     # reproject at n = 256: 0.5 s at lambda 1, 0.6 s at 10^6
GEGEN_MAX_D = 2002    # zonal at n = 256: 0.1 s
PROP_MAX_D = 2002     # the real kernel's order (D-2)/2 stops at specfun.MAX_ORDER = 1000,
                      # the ladder's length (K_nu is scaled, so not its range); every kind 0.1 s
DIVISORS_MAX_N = 12   # (k+1)(2^n-1) + 2^n-n-1 labels: 16,368 at k = 2
DIVISORS_MAX_K = 8    # 40,938 labels at n = 12
QUAD_MAX_POINTS = 1_000_000  # gm-integral: 0.8-1.1 s
EXPAND_MAX_RADIAL = 64  # gegenbauer method at |ell| = 16: 0.3 s for D = 3, 4, 12, 34
EXPAND_MAX_ELL = 16     # |ell|; gegenbauer method at radial 64: 0.3 s (0.4 s at 24)
EXPAND_MAX_GEGEN_CAP = EXPAND_MAX_RADIAL  # filters the tensor, costs nothing itself
EXPAND_MAX_D = 800      # gegenbauer at radial 64: 0.35 s at 800 (ell 16) and at 799
                        # (ell 15/2); taylor at 799 (ell 16) 0.17 s
BETA_MAX_DEGREE = 12  # beta and frame check on a 12-edge necklace: 0.06 s in process
                      # (0.2 s at 14)
GRAPH_MAX_VERTICES = 16  # legs included; graph-antipode 3.9 s on the generalized Petersen
                         # graph GP(8,2) (coproduct 1.3 s), 2.1 s on K5,5 with 6 legs;
                         # 11-14 s at 24 with a leg on each vertex of the circulant C12(1,5)
GRAPH_MAX_INTERNAL_EDGES = 25  # graph-antipode: K5,5 1.2 s, 12 bananas in a ring with one
                               # tripled 4.4 s (coproduct 0.9 s, 1.4 s)
RENORM_MAX_INTERNAL_EDGES = 12  # renorm and beta factorize every quotient: beta --degree 12
                                # on a ring of 6 bananas with a leg on each vertex 0.15 s a
                                # run, on a ring of 8 (16 edges) 0.8 s in process; renorm
                                # 0.12 s and 0.4 s

USAGE = "usage: confeyn {" + ",".join(SUBCOMMANDS) + "} [options]\n"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    out: list[str] = []

    def emit(o):
        if isinstance(o, dict):
            out.append("{")
            for i, k in enumerate(sorted(o)):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k)))
                out.append(":")
                emit(o[k])
            out.append("}")
        elif isinstance(o, (list, tuple)):
            out.append("[")
            for i, v in enumerate(o):
                if i:
                    out.append(",")
                emit(v)
            out.append("]")
        elif isinstance(o, bool):
            out.append("true" if o else "false")
        elif isinstance(o, float):
            out.append(_fmt_float(o))
        elif isinstance(o, int):
            out.append(str(o))
        elif o is None:
            out.append("null")
        else:
            out.append(json.dumps(str(o)))

    emit(obj)
    return "".join(out)


def _write_output(doc, path: str | None):
    text = dumps_deterministic(doc) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check_max(what: str, value: int, maximum: int) -> None:
    if value > maximum:
        raise ValueError(f"{what} {value} exceeds the maximum {maximum}")


def _int_arg(maximum: int):
    """The argparse type of an integer from 0 to ``maximum``: every size
    argument is a count or a dimension."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer at most {maximum}, got {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum 0")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{value} exceeds the maximum {maximum}")
        return value
    return parse


def _fraction_arg(maximum: int):
    """The argparse type of a rational such as 3/2 or 1.5, at most ``maximum``
    in absolute value and in denominator.  The exponent form is refused:
    Fraction('1e10000000') alone builds a ten-million-digit integer."""
    def parse(text: str) -> Fraction:
        try:
            if len(text) > 64 or "e" in text.lower():
                raise ValueError
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"must be a rational such as 3/2, got {text[:64]!r}") from None
        if abs(value) > maximum or value.denominator > maximum:
            raise argparse.ArgumentTypeError(
                f"{text} exceeds the maximum {maximum} in absolute value or denominator")
        return value
    return parse


# -- graph files --------------------------------------------------------------


def _load_graphs(path: str) -> list[tuple[str, FeynmanGraph]]:
    from .feyngraph import FeynmanGraph

    data = _load_json(path)
    entries = data["graphs"] if isinstance(data, dict) else data
    out = []
    for i, entry in enumerate(entries):
        name = entry.get("name", f"graph{i}")
        try:
            graph = FeynmanGraph.from_json(entry)
        except ValueError as exc:
            raise ValueError(f"graph {name!r}: {exc}") from None
        # before validation, whose valence count is quadratic in the size
        _check_max(f"graph {name!r}: vertex count", len(graph.external), GRAPH_MAX_VERTICES)
        _check_max(f"graph {name!r}: internal edge count", graph.degree(),
                   GRAPH_MAX_INTERNAL_EDGES)
        problems = graph.validate()
        if problems:
            raise ValueError(f"graph {name!r}: " + "; ".join(problems))
        out.append((name, graph))
    return out


def _monomial_names(mono, registry: dict[str, dict]) -> list[str]:
    names = []
    for g in mono:
        lbl = g.label()
        if lbl not in registry:
            registry[lbl] = g.canonical_representative().to_json()
        names.append(lbl)
    return names


# -- subcommand handlers -------------------------------------------------------


def _cmd_prop_eval(args) -> dict:
    from . import propagators

    if args.x:
        x = tuple(float(c) for c in args.x.split(","))
        k = propagators.Kinematics(args.D, x, args.m)
    else:
        k = propagators.Kinematics.radial(args.D, args.r, args.m)
    kind = args.kind
    if kind == "gm":
        value = propagators.gm_real(k)
    elif kind == "g0":
        value = propagators.g0_real(k)
    elif kind == "gm-integral":
        value = propagators.gm_integral(k, args.quad_points)
    elif kind == "gm-complex":
        value = propagators.gm_complex(k)
    elif kind == "g0-complex":
        phase = propagators.g0_complex(k)
        return {"kind": kind, "magnitude": phase.magnitude, "i_power": phase.i_power}
    elif kind == "dirac":
        dc = propagators.dirac_propagator(k)
        return {"kind": kind, "a": dc.a, "b": dc.b}
    elif kind == "boson":
        value = propagators.boson_propagator(k, args.alpha, args.mu, args.nu)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"kind": kind, "value": value}


def _cmd_prop_expand(args) -> dict:
    from . import amplitude, specfun

    if args.case == "complex":
        lam = amplitude.complex_case_weight(args.D)
    else:
        lam = specfun.as_half_integer(Fraction(args.D - 2, 2), "lambda")
    # a term r^(-2 lam) z^k (a + b log z), z = m r, is written as
    # r^(k - 2 lam) [m^k (a + b log m) + m^k b log r]
    if args.method == "taylor":
        term = amplitude.taylor_term_coefficient(args.ell, lam)
        k = term.z_power
        return {"method": "taylor", "ell": str(args.ell),
                "branch": "power" if term.b.is_zero() else "log",
                "r_exponent": str(k - 2 * lam),
                "coeff_const": term.a.to_json(k) + term.b.to_json(k, 1),
                "coeff_log": term.b.to_json(k)}
    if args.method == "asymptotic":
        term = amplitude.asymptotic_term_coefficient(args.ell, lam)
        return {"method": "asymptotic", "ell": str(args.ell),
                "r_exponent": str(term.z_power - 2 * lam),
                "coeff": term.a.to_json(term.z_power),
                "exponential_factor": "exp(-m*r)"}
    if args.method == "gegenbauer":
        orders = amplitude.TruncationOrders(radial=args.radial, gegen=args.gegen_cap)
        expansion = amplitude.edge_gegenbauer_expansion(args.ell, lam, orders)
        return {"method": "gegenbauer", "ell": str(args.ell),
                "expansion": expansion.to_json()}
    raise ValueError(f"unknown method {args.method!r}")


def _cmd_gegen(args) -> dict:
    from . import gegenbauer

    if args.op == "zonal":
        return {"value": gegenbauer.zonal_coefficient(args.D, args.n).scalar_json()}
    lam = args.lam
    if lam is None:
        raise ValueError("--lambda is required")
    if args.op == "generating":
        return {"value": gegenbauer.generating_series_coeff(lam, args.n, args.x)}
    if args.op == "coeffs":
        coeffs = gegenbauer.gegenbauer_coeffs(lam, args.n)
    elif args.op == "monomial":
        coeffs = gegenbauer.monomial_to_gegenbauer(args.m, lam)
    elif args.op == "chebyshev":
        coeffs = gegenbauer.chebyshev_to_gegenbauer(args.n, lam)
    elif args.op == "reproject":
        if args.ell is None:
            raise ValueError("--ell is required")
        coeffs = gegenbauer.reproject_gegenbauer(args.ell, args.n, lam)
    elif args.op == "product":
        coeffs = gegenbauer.product_linearize(args.n, args.m, lam)
    else:
        raise ValueError(f"unknown op {args.op!r}")
    # string keys, so that the output sorts degrees as strings
    return {str(d): str(c) for d, c in coeffs.items()}


def _cmd_graph_coproduct(args) -> dict:
    from . import hopf

    algebra = hopf.HopfAlgebra()
    registry: dict[str, dict] = {}
    graphs_out = []
    for name, graph in _load_graphs(args.graphs):
        terms = sorted(({"coeff": str(c), "left": _monomial_names(left, registry),
                         "right": _monomial_names(right, registry)}
                        for (left, right), c in algebra.coproduct(graph).terms.items()),
                       key=lambda t: (t["left"], t["right"]))
        graphs_out.append({"name": name, "degree": graph.degree(),
                           "coproduct": terms})
    return {"graphs": graphs_out, "labels": registry}


def _cmd_graph_antipode(args) -> dict:
    from . import hopf

    algebra = hopf.HopfAlgebra()
    registry: dict[str, dict] = {}
    graphs_out = []
    for name, graph in _load_graphs(args.graphs):
        terms = sorted(({"coeff": str(c), "monomial": _monomial_names(mono, registry)}
                        for mono, c in algebra.antipode(graph).terms.items()),
                       key=lambda t: t["monomial"])
        graphs_out.append({"name": name, "antipode": terms})
    return {"graphs": graphs_out, "labels": registry}


def _laurent_character(algebra: HopfAlgebra, graphs, phi_path: str) -> Character:
    from . import birkhoff, rotabaxter

    table = _load_json(phi_path)
    by_graph = {}  # a graph hashes by its isomorphism class
    for name, graph in graphs:
        if name not in table:
            raise ValueError(f"phi file missing entry for graph {name!r}")
        by_graph[graph] = rotabaxter.LaurentSeries.from_json(table[name])

    def rule(g: FeynmanGraph) -> LaurentSeries:
        try:
            return by_graph[g]
        except KeyError:
            raise ValueError("phi file does not cover a subgraph/quotient "
                             "generated during factorization; add it") from None
    return birkhoff.Character(algebra, rotabaxter.LaurentAlgebra(), rule)


def _make_pair(args, graphs) -> BirkhoffPair:
    from . import birkhoff, hopf

    for name, graph in graphs:
        _check_max(f"graph {name!r}: internal edge count", graph.degree(),
                   RENORM_MAX_INTERNAL_EDGES)
    algebra = hopf.HopfAlgebra()
    if args.target == "laurent":
        if not args.phi:
            raise ValueError("--phi FILE is required for the laurent target")
        phi = _laurent_character(algebra, graphs, args.phi)
    elif args.target == "logform":
        # the toy labels use no marked component, so k_external is 0; the
        # vertex budget is the graph cap, which every graph read has passed
        phi = birkhoff.toy_feynman_character(algebra, n_vertices=GRAPH_MAX_VERTICES,
                                             k_external=0, rule_seed=args.seed)
    else:
        raise ValueError(f"unknown target {args.target!r}")
    return birkhoff.birkhoff_factorize(phi)


def _report(value):
    """A target value as JSON: a Laurent series with its repr, a log form as is."""
    from . import rotabaxter

    if isinstance(value, rotabaxter.LaurentSeries):
        return {"coeffs": value.to_json(), "repr": repr(value)}
    return value.to_json()


def _cmd_renorm(args) -> dict:
    graphs = _load_graphs(args.graphs)
    pair = _make_pair(args, graphs)
    flag = {"laurent": "polar_free", "logform": "residue_free"}[args.target]
    out = []
    for name, graph in graphs:
        plus = pair.phi_plus(graph)
        out.append({
            "name": name,
            "phi": _report(pair.phi(graph)),
            "phi_minus": _report(pair.phi_minus(graph)),
            "phi_plus": _report(plus),
            flag: pair.target.T(plus).is_zero(),
        })
    return {"target": args.target, "graphs": out}


def _cmd_beta(args) -> dict:
    from . import birkhoff

    graphs = _load_graphs(args.graphs)
    pair = _make_pair(args, graphs)
    beta = birkhoff.beta_function(pair)
    frame = birkhoff.universal_frame(beta)
    out = []
    for name, graph in graphs:
        entry = {"name": name, "degree": graph.degree(), "beta": _report(beta(graph))}
        if graph.degree() <= args.degree:
            entry["frame_matches_phi_minus"] = frame(graph) == pair.phi_minus(graph)
        out.append(entry)
    return {"target": args.target, "graphs": out}


def _cmd_divisors(args) -> dict:
    from . import rotabaxter

    labels = rotabaxter.divisor_labels(args.n, args.k)
    return {"n": args.n, "k": args.k, "count": len(labels),
            "labels": [rotabaxter.label_str(l) for l in sorted(labels)]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confeyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prop-eval", help="evaluate a propagator")
    p.add_argument("--D", type=_int_arg(PROP_MAX_D), required=True, help=f"at most {PROP_MAX_D}")
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--x", type=str, default=None, help="comma-separated separation vector")
    p.add_argument("--kind", default="gm",
                   choices=["gm", "g0", "gm-integral", "gm-complex", "g0-complex",
                            "dirac", "boson"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mu", type=int, default=0)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--quad-points", type=_int_arg(QUAD_MAX_POINTS), default=1600,
                   help=f"2 to {QUAD_MAX_POINTS}")
    p.set_defaults(func=_cmd_prop_eval)

    p = sub.add_parser("prop-expand", help="expansion coefficients of an edge factor")
    p.add_argument("--D", type=_int_arg(EXPAND_MAX_D), required=True,
                   help=f"at most {EXPAND_MAX_D}")
    p.add_argument("--case", default="real", choices=["real", "complex"])
    p.add_argument("--method", default="taylor",
                   choices=["taylor", "asymptotic", "gegenbauer"])
    p.add_argument("--ell", type=_fraction_arg(EXPAND_MAX_ELL), required=True,
                   help=f"at most {EXPAND_MAX_ELL} in absolute value and denominator")
    p.add_argument("--radial", type=_int_arg(EXPAND_MAX_RADIAL), default=24,
                   help=f"at most {EXPAND_MAX_RADIAL}")
    p.add_argument("--gegen-cap", type=_int_arg(EXPAND_MAX_GEGEN_CAP), default=None,
                   help=f"at most {EXPAND_MAX_GEGEN_CAP}")
    p.set_defaults(func=_cmd_prop_expand)

    p = sub.add_parser("gegen", help="Gegenbauer engine operations")
    p.add_argument("--op", required=True,
                   choices=["coeffs", "monomial", "chebyshev", "reproject",
                            "product", "zonal", "generating"])
    p.add_argument("--lambda", dest="lam", type=_fraction_arg(GEGEN_MAX_LAMBDA), default=None,
                   help=f"a rational; at most {GEGEN_MAX_LAMBDA} in absolute value and "
                        "denominator; every op but zonal needs it")
    p.add_argument("--n", type=_int_arg(GEGEN_MAX_N), default=0, help=f"at most {GEGEN_MAX_N}")
    p.add_argument("--m", type=_int_arg(GEGEN_MAX_M), default=0, help=f"at most {GEGEN_MAX_M}")
    p.add_argument("--ell", type=_fraction_arg(GEGEN_MAX_ELL), default=None,
                   help=f"source weight of reproject; at most {GEGEN_MAX_ELL} in absolute "
                        "value and denominator")
    p.add_argument("--D", type=_int_arg(GEGEN_MAX_D), default=3, help=f"at most {GEGEN_MAX_D}")
    p.add_argument("--x", type=float, default=0.0)
    p.set_defaults(func=_cmd_gegen)

    p = sub.add_parser("graph-coproduct", help="coproduct of graphs from a JSON file")
    p.add_argument("--graphs", required=True)
    p.set_defaults(func=_cmd_graph_coproduct)

    p = sub.add_parser("graph-antipode", help="antipode of graphs from a JSON file")
    p.add_argument("--graphs", required=True)
    p.set_defaults(func=_cmd_graph_antipode)

    for name, text, func in (("renorm", "Birkhoff factorization report", _cmd_renorm),
                             ("beta", "beta function and universal-frame check", _cmd_beta)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--target", required=True, choices=["laurent", "logform"])
        p.add_argument("--graphs", required=True)
        p.add_argument("--phi", default=None, help="per-graph Laurent values (JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
    sub.choices["beta"].add_argument("--degree", type=_int_arg(BETA_MAX_DEGREE), default=3,
                                     help=f"at most {BETA_MAX_DEGREE}")

    p = sub.add_parser("divisors", help="boundary divisor labels")
    p.add_argument("--n", type=_int_arg(DIVISORS_MAX_N), required=True,
                   help=f"at most {DIVISORS_MAX_N}")
    p.add_argument("--k", type=_int_arg(DIVISORS_MAX_K), required=True,
                   help=f"at most {DIVISORS_MAX_K}")
    p.set_defaults(func=_cmd_divisors)

    for name in SUBCOMMANDS:
        sub.choices[name].add_argument("--out", default=None,
                                       help="output path (default: stdout)")
    return parser


def _nonconvergence_errors() -> tuple[type, ...]:
    """The exceptions that mean numeric non-convergence (exit 3): the
    QuadratureError of propagators, which only a loaded propagators raises."""
    propagators = sys.modules.get(f"{__package__}.propagators")
    return (propagators.QuadratureError,) if propagators else ()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 0 if argv else 64
    if argv[0] not in SUBCOMMANDS:
        sys.stderr.write(USAGE)
        return 64
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        doc = args.func(args)
    except _nonconvergence_errors() as exc:
        sys.stderr.write(f"numeric non-convergence: {exc}\n")
        return 3
    except (ValueError, OverflowError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _write_output(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
