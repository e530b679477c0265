"""Batch command-line front end with deterministic JSON output.

Subcommands: prop-eval, prop-expand, gegen, graph-coproduct, graph-antipode,
renorm, beta, divisors.  Payloads are JSON files (or inline); output is JSON
with sorted keys, rationals as strings, and floats rendered with 17
significant digits, so identical inputs give byte-identical output.

Numeric defaults (quadrature points, truncation orders, toy-character seeds)
may be overridden by a JSON file named by the CONFEYN_CONFIG environment
variable; explicit flags always win.

Exit codes: 0 success, 2 validation error, 3 numeric non-convergence,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import amplitude, gegenbauer, propagators
from .birkhoff import (BirkhoffPair, Character, beta_function,
                       birkhoff_factorize, toy_feynman_character, universal_frame)
from .feyngraph import FeynmanGraph
from .hopf import HopfAlgebra, HopfElement, monomial
from .rotabaxter import (LaurentAlgebra, LaurentSeries, divisor_labels,
                         label_sort_key, label_str, multi_residues_vanish)
from .specfun import as_half_integer

SUBCOMMANDS = ("prop-eval", "prop-expand", "gegen", "graph-coproduct",
               "graph-antipode", "renorm", "beta", "divisors")

GEGEN_MAX_N = 256     # each gegen op takes under 0.5 s at this degree
DIVISORS_MAX_N = 12   # (k+1)(2^n-1) + 2^n-n-1 labels: 16,368 at k = 2
DIVISORS_MAX_K = 8    # 40,938 labels at n = 12

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


def _fraction_arg(text: str) -> Fraction:
    return Fraction(text)


# -- graph files --------------------------------------------------------------


def _load_graphs(path: str) -> list[tuple[str, FeynmanGraph]]:
    data = _load_json(path)
    entries = data["graphs"] if isinstance(data, dict) else data
    out = []
    for i, entry in enumerate(entries):
        name = entry.get("name", f"graph{i}")
        graph = FeynmanGraph.from_json(entry)
        problems = graph.validate()
        if problems:
            raise ValueError(f"graph {name!r}: " + "; ".join(problems))
        out.append((name, graph))
    return out


def _monomial_names(mono, registry: dict[str, dict]) -> list[str]:
    names = []
    for g in mono:
        lbl = g.label()
        registry.setdefault(lbl, g.to_json())
        names.append(lbl)
    return names


# -- subcommand handlers -------------------------------------------------------


def _cmd_prop_eval(args) -> dict:
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
        quad = propagators.QuadratureConfig(points=args.quad_points)
        value = propagators.gm_integral(k, quad)
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
    if args.case == "complex":
        lam = amplitude.complex_case_weight(args.D)
    else:
        lam = as_half_integer(Fraction(args.D - 2, 2), "lambda")
    if args.method == "taylor":
        spec = amplitude.TaylorTermSpec.make(_fraction_arg(args.ell), lam)
        term = amplitude.taylor_term_coefficient(spec, lam)
        return {"method": "taylor", "ell": str(spec.ell), "branch": spec.branch,
                "r_exponent": str(term.r_exponent),
                "coeff_const": term.coeff_const.to_json(),
                "coeff_log": term.coeff_log.to_json()}
    if args.method == "asymptotic":
        term = amplitude.asymptotic_term_coefficient(int(Fraction(args.ell)), lam)
        return {"method": "asymptotic", "ell": args.ell,
                "r_exponent": str(term.r_exponent),
                "coeff": term.coeff.to_json(),
                "exponential_factor": "exp(-m*r)"}
    if args.method == "gegenbauer":
        spec = amplitude.TaylorTermSpec.make(_fraction_arg(args.ell), lam)
        orders = amplitude.TruncationOrders(radial=args.radial, gegen=args.gegen_cap)
        expansion = amplitude.edge_gegenbauer_expansion(spec, lam, orders)
        return {"method": "gegenbauer", "ell": str(spec.ell),
                "expansion": expansion.to_json()}
    raise ValueError(f"unknown method {args.method!r}")


def _combo_json(combo: gegenbauer.GegenCombo) -> dict:
    out = {}
    for d in sorted(combo.coeffs):
        c = combo.coeffs[d]
        out[str(d)] = str(c.as_rational()) if c.is_rational() else c.to_json()
    return out


def _cmd_gegen(args) -> dict:
    if args.n > GEGEN_MAX_N:
        raise ValueError(f"--n {args.n} exceeds the maximum {GEGEN_MAX_N}")
    lam = _fraction_arg(args.lam) if args.lam else None
    if args.op == "coeffs":
        spec = gegenbauer.PolySpec(lam, args.n)
        coeffs = gegenbauer.gegenbauer_coeffs(spec)
        return {str(p): str(c.as_rational()) for p, c in sorted(coeffs.items())}
    if args.op == "monomial":
        return _combo_json(gegenbauer.monomial_to_gegenbauer(args.m, lam))
    if args.op == "chebyshev":
        return _combo_json(gegenbauer.chebyshev_to_gegenbauer(args.n, lam))
    if args.op == "reproject":
        return _combo_json(gegenbauer.reproject_gegenbauer(
            _fraction_arg(args.ell), args.n, lam))
    if args.op == "product":
        return _combo_json(gegenbauer.product_linearize(args.n, args.m, lam))
    if args.op == "zonal":
        return {"value": gegenbauer.zonal_coefficient(args.D, args.n).to_json()}
    if args.op == "generating":
        return {"value": gegenbauer.generating_series_coeff(lam, args.n, args.x)}
    raise ValueError(f"unknown op {args.op!r}")


def _cmd_graph_coproduct(args) -> dict:
    hopf = HopfAlgebra()
    registry: dict[str, dict] = {}
    graphs_out = []
    for name, graph in _load_graphs(args.graphs):
        terms = []
        for (left, right), c in sorted(hopf.coproduct(graph).terms.items(),
                                       key=lambda kv: str(kv[0])):
            terms.append({"coeff": str(c),
                          "left": _monomial_names(left, registry),
                          "right": _monomial_names(right, registry)})
        graphs_out.append({"name": name, "degree": graph.degree(),
                           "coproduct": terms})
    return {"graphs": graphs_out, "labels": registry}


def _cmd_graph_antipode(args) -> dict:
    hopf = HopfAlgebra()
    registry: dict[str, dict] = {}
    graphs_out = []
    for name, graph in _load_graphs(args.graphs):
        terms = []
        antipode = hopf.antipode(graph)
        for mono, c in sorted(antipode.terms.items(), key=lambda kv: str(kv[0])):
            terms.append({"coeff": str(c),
                          "monomial": _monomial_names(mono, registry)})
        graphs_out.append({"name": name, "antipode": terms})
    return {"graphs": graphs_out, "labels": registry}


def _laurent_character(hopf: HopfAlgebra, graphs, phi_path: str) -> Character:
    table = _load_json(phi_path)
    by_key = {}
    for name, graph in graphs:
        if name not in table:
            raise ValueError(f"phi file missing entry for graph {name!r}")
        by_key[graph.canonical_key()] = LaurentSeries.from_json(table[name])

    def rule(g: FeynmanGraph) -> LaurentSeries:
        try:
            return by_key[g.canonical_key()]
        except KeyError:
            raise ValueError("phi file does not cover a subgraph/quotient "
                             "generated during factorization; add it") from None
    return Character(hopf, LaurentAlgebra(), rule)


def _make_pair(args, graphs) -> tuple[HopfAlgebra, BirkhoffPair, str]:
    hopf = HopfAlgebra()
    if args.target == "laurent":
        if not args.phi:
            raise ValueError("--phi FILE is required for the laurent target")
        phi = _laurent_character(hopf, graphs, args.phi)
    elif args.target == "logform":
        phi = toy_feynman_character(hopf, n_vertices=args.n_vertices,
                                    k_external=args.k_external,
                                    rule_seed=args.seed)
    else:
        raise ValueError(f"unknown target {args.target!r}")
    return hopf, birkhoff_factorize(phi), args.target


def _series_report(value: LaurentSeries) -> dict:
    return {"coeffs": value.to_json(), "repr": repr(value)}


def _cmd_renorm(args) -> dict:
    graphs = _load_graphs(args.graphs)
    hopf, pair, target = _make_pair(args, graphs)
    out = []
    for name, graph in graphs:
        if target == "laurent":
            out.append({
                "name": name,
                "phi": _series_report(pair.phi.on_monomial(monomial(graph))),
                "phi_minus": _series_report(pair.phi_minus(graph)),
                "phi_plus": _series_report(pair.phi_plus(graph)),
                "polar_free": pair.phi_plus(graph).polar_part().is_zero(),
            })
        else:
            plus = pair.phi_plus(graph)
            out.append({
                "name": name,
                "phi": pair.phi.on_monomial(monomial(graph)).to_json(),
                "phi_minus": pair.phi_minus(graph).to_json(),
                "phi_plus": plus.to_json(),
                "residue_free": multi_residues_vanish(plus),
            })
    return {"target": target, "graphs": out}


def _cmd_beta(args) -> dict:
    graphs = _load_graphs(args.graphs)
    hopf, pair, target = _make_pair(args, graphs)
    beta = beta_function(pair)
    frame = universal_frame(beta)
    out = []
    for name, graph in graphs:
        value = beta(HopfElement.generator(graph))
        entry = {"name": name, "degree": graph.degree()}
        if target == "laurent":
            entry["beta"] = _series_report(value)
        else:
            entry["beta"] = value.to_json()
        if graph.degree() <= args.degree:
            recon = frame.on_monomial(monomial(graph))
            entry["frame_matches_phi_minus"] = bool(
                recon == pair.phi_minus(graph))
        out.append(entry)
    return {"target": target, "graphs": out}


def _cmd_divisors(args) -> dict:
    if args.n > DIVISORS_MAX_N:
        raise ValueError(f"--n {args.n} exceeds the maximum {DIVISORS_MAX_N}")
    if args.k > DIVISORS_MAX_K:
        raise ValueError(f"--k {args.k} exceeds the maximum {DIVISORS_MAX_K}")
    labels = divisor_labels(args.n, args.k)
    return {"n": args.n, "k": args.k, "count": len(labels),
            "labels": [label_str(l) for l in sorted(labels, key=label_sort_key)]}


def build_parser(overrides: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confeyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prop-eval", help="evaluate a propagator")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--x", type=str, default=None, help="comma-separated separation vector")
    p.add_argument("--kind", default="gm",
                   choices=["gm", "g0", "gm-integral", "gm-complex", "g0-complex",
                            "dirac", "boson"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mu", type=int, default=0)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--quad-points", type=int, default=1600)
    p.set_defaults(func=_cmd_prop_eval)

    p = sub.add_parser("prop-expand", help="expansion coefficients of an edge factor")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--case", default="real", choices=["real", "complex"])
    p.add_argument("--method", default="taylor",
                   choices=["taylor", "asymptotic", "gegenbauer"])
    p.add_argument("--ell", type=str, required=True)
    p.add_argument("--radial", type=int, default=24)
    p.add_argument("--gegen-cap", type=int, default=None)
    p.set_defaults(func=_cmd_prop_expand)

    p = sub.add_parser("gegen", help="Gegenbauer engine operations")
    p.add_argument("--op", required=True,
                   choices=["coeffs", "monomial", "chebyshev", "reproject",
                            "product", "zonal", "generating"])
    p.add_argument("--lambda", dest="lam", type=str, default=None)
    p.add_argument("--n", type=int, default=0, help=f"at most {GEGEN_MAX_N}")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--ell", type=str, default=None)
    p.add_argument("--D", type=int, default=3)
    p.add_argument("--x", type=float, default=0.0)
    p.set_defaults(func=_cmd_gegen)

    p = sub.add_parser("graph-coproduct", help="coproduct of graphs from a JSON file")
    p.add_argument("--graphs", required=True)
    p.set_defaults(func=_cmd_graph_coproduct)

    p = sub.add_parser("graph-antipode", help="antipode of graphs from a JSON file")
    p.add_argument("--graphs", required=True)
    p.set_defaults(func=_cmd_graph_antipode)

    p = sub.add_parser("renorm", help="Birkhoff factorization report")
    p.add_argument("--target", required=True, choices=["laurent", "logform"])
    p.add_argument("--graphs", required=True)
    p.add_argument("--phi", default=None, help="per-graph Laurent values (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-vertices", type=int, default=6)
    p.add_argument("--k-external", type=int, default=1)
    p.set_defaults(func=_cmd_renorm)

    p = sub.add_parser("beta", help="beta function and universal-frame check")
    p.add_argument("--target", required=True, choices=["laurent", "logform"])
    p.add_argument("--graphs", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-vertices", type=int, default=6)
    p.add_argument("--k-external", type=int, default=1)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("divisors", help="boundary divisor labels")
    p.add_argument("--n", type=int, required=True, help=f"at most {DIVISORS_MAX_N}")
    p.add_argument("--k", type=int, required=True, help=f"at most {DIVISORS_MAX_K}")
    p.set_defaults(func=_cmd_divisors)

    for name in SUBCOMMANDS:
        sub.choices[name].add_argument("--out", default=None,
                                       help="output path (default: stdout)")
        if overrides:
            sub.choices[name].set_defaults(
                **{k: v for k, v in overrides.items() if k in _CONFIG_KEYS})
    return parser


CONFIG_ENV = "CONFEYN_CONFIG"
_CONFIG_KEYS = ("quad_points", "radial", "gegen_cap", "seed",
                "n_vertices", "k_external", "degree")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 0 if argv else 64
    if argv[0] not in SUBCOMMANDS:
        sys.stderr.write(USAGE)
        return 64
    overrides = None
    config_path = os.environ.get(CONFIG_ENV)
    if config_path:
        try:
            overrides = _load_json(config_path)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"error reading {CONFIG_ENV}: {exc}\n")
            return 2
    parser = build_parser(overrides)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        doc = args.func(args)
    except propagators.QuadratureError as exc:
        sys.stderr.write(f"numeric non-convergence: {exc}\n")
        return 3
    except (ValueError, OverflowError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _write_output(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
