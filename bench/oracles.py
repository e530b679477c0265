"""Checks of the benchmark's outputs against computations made apart from
confeyn: closed forms on ``scipy.special.kv``/``kvp``, Gegenbauer
polynomials from ``sympy``, binomial series in exact rationals, and an
admissible-subgraph enumeration on ``networkx``.

Each check returns a list of problems (empty when the output is right).
The oracle packages are imported inside the functions, after the timed part
of a run, so that they do not count towards its memory peak.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from jobs import AMP_GRAPHS

DIRECT_RTOL = 1e-8
KERNEL_RTOL = 1e-9
SAFETY = 10.0


# ---------------------------------------------------------------------------
# closed forms of the kernels
# ---------------------------------------------------------------------------


def scalar_kernel(D: int, m: float, r: float) -> float:
    """(2 pi)^(-D/2) m^(D-2) (m r)^(-nu) K_nu(m r), nu = (D-2)/2."""
    from scipy.special import kv
    nu = (D - 2) / 2.0
    return (2 * math.pi) ** (-D / 2.0) * m ** (D - 2) * (m * r) ** (-nu) * kv(nu, m * r)


def complex_kernel(D: int, m: float, r: float) -> float:
    from scipy.special import kv
    return (2 * math.pi) ** (-D) * m ** (D - 1) * r ** (-(D - 1)) * kv(D - 1, m * r)


def _radial(D: int, M: float, r: float) -> tuple[float, float, float]:
    """G(r) = (2 pi)^(-D/2) M^lam r^(-lam) K_lam(M r) and its first two
    r-derivatives, from kv and kvp."""
    from scipy.special import kv, kvp
    lam = (D - 2) / 2.0
    c = (2 * math.pi) ** (-D / 2.0) * M ** lam
    z = M * r
    k0, k1, k2 = kv(lam, z), kvp(lam, z, 1), kvp(lam, z, 2)
    g = c * r ** -lam * k0
    gp = c * (-lam * r ** (-lam - 1) * k0 + r ** -lam * M * k1)
    gpp = c * (lam * (lam + 1) * r ** (-lam - 2) * k0 - 2 * lam * r ** (-lam - 1) * M * k1
               + r ** -lam * M * M * k2)
    return g, gp, gpp


def dirac_kernel(D: int, m: float, r: float) -> tuple[float, float]:
    """S = (-i dslash + m) G_sqrt(m): the coefficient of i gamma.x is -G'/r,
    that of the identity is m G."""
    g, gp, _ = _radial(D, math.sqrt(m), r)
    return -gp / r, m * g


def boson_kernel(D: int, m: float, x, alpha: float, mu: int, nu: int) -> tuple[float, float]:
    """Stueckelberg-gauge component and the scale of its terms (for the
    tolerance, since the two derivative terms may cancel)."""
    r = math.sqrt(sum(c * c for c in x))

    def dd(M):
        _, gp, gpp = _radial(D, M, r)
        return (gp / r if mu == nu else 0.0) + x[mu] * x[nu] * (gpp - gp / r) / (r * r)

    g1 = _radial(D, math.sqrt(m), r)[0]
    d1, d2 = dd(math.sqrt(m)), dd(math.sqrt(m / alpha))
    value = (g1 if mu == nu else 0.0) + (d2 - d1) / (m * m)
    return value, abs(g1) + (abs(d1) + abs(d2)) / (m * m)


def _close(value, expected, scale, rtol) -> bool:
    return isinstance(value, float) and abs(value - expected) <= rtol * abs(scale)


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------


def _edges(case):
    _, edges, _ = AMP_GRAPHS[case["graph"]]
    for i, (a, b) in enumerate(edges):
        xs, xt = case["pos"][a], case["pos"][b]
        r = math.sqrt(sum((p - q) ** 2 for p, q in zip(xs, xt)))
        ns = math.sqrt(sum(p * p for p in xs))
        nt = math.sqrt(sum(p * p for p in xt))
        yield case["masses"][i], r, min(ns, nt) / max(ns, nt)


def radial_bound(lam: Fraction, radial: int, u: float) -> float:
    """Relative tail of sum_n C_n^(lam)(c) u^n beyond n = radial, bounded by
    |C_n^(lam)| <= (2 lam)_n / n! and (1 - 2uc + u^2)^(-lam) >= (1 + u)^(-2 lam)."""
    w = float(2 * lam)
    coeff, tail, n = 1.0, 0.0, 0
    while True:
        term = coeff * u ** n
        if n > radial:
            tail += term
            if term < 1e-20 * max(tail, 1e-300):
                break
        coeff *= (w + n) / (n + 1)
        n += 1
    return (1 + u) ** float(2 * lam) * tail


def taylor_bound(ell_max: int, z: float) -> float:
    """Relative size of the first omitted small-separation term, z^(2L+2)/(2L+2)!,
    with room for the exponential and the logarithm."""
    k = 2 * ell_max + 2
    return math.exp(z) * z ** k / math.factorial(k) * (1 + abs(math.log(z)))


def amplitude_tolerance(case, method: str, radial: int, ell_max: int) -> float:
    lam = Fraction(case["D"] - 2, 2)
    total = 0.0
    for m, r, u in _edges(case):
        total += taylor_bound(ell_max, m * r)
        if method == "gegenbauer":
            total += radial_bound(lam, radial, u)
    return SAFETY * total + 1e-10


def check_amplitude(job) -> tuple[list[str], int]:
    """Problems outside the K_nu defect slice, and the number of operations
    (defect slice included) whose value is wrong."""
    problems, wrong = [], 0
    radial, ell_max = job.inputs["radial"], job.inputs["ell_max"]
    for out in job.outputs:
        spec, value = out["spec"], out["value"]
        ok, why = _check_amp_output(spec, value, radial, ell_max)
        if not ok:
            wrong += 1
            if spec["kind"] != "defect":
                problems.append(f"amplitude {spec['method']} {spec.get('graph', '')} "
                                f"D={spec['D']}: {why}")
    return problems, wrong


def _check_amp_output(spec, value, radial, ell_max):
    if isinstance(value, dict) and "error" in value:
        return False, value["error"]
    if spec["method"] in ("direct", "gegenbauer", "taylor"):
        expected = 1.0
        for m, r, _ in _edges(spec):
            expected *= scalar_kernel(spec["D"], m, r)
        if spec["method"] == "direct":
            tol = DIRECT_RTOL
        else:
            tol = amplitude_tolerance(spec, spec["method"], radial, ell_max)
        ok = _close(value, expected, expected, tol)
        return ok, f"{value!r} against {expected!r} (rtol {tol:.1e})"
    k = spec
    r = math.sqrt(sum(c * c for c in k["x"]))
    if k["method"] == "dirac":
        a, b = dirac_kernel(k["D"], k["m"], r)
        ok = (isinstance(value, dict) and _close(value["a"], a, a, KERNEL_RTOL)
              and _close(value["b"], b, b, KERNEL_RTOL))
        return ok, f"{value!r} against a={a!r}, b={b!r}"
    expected, scale = boson_kernel(k["D"], k["m"], k["x"], k["alpha"], k["mu"], k["nu"])
    return _close(value, expected, scale, KERNEL_RTOL), f"{value!r} against {expected!r}"


# ---------------------------------------------------------------------------
# graphs: admissible subgraphs by networkx
# ---------------------------------------------------------------------------


def admissible_count(doc: dict) -> int:
    """Proper nonempty internal-edge subsets whose components are 1PI and whose
    quotient (each component shrunk to a vertex) is loop-free and 1PI: the
    components are bridgeless, and the quotient's internal multigraph is
    connected over all internal vertices and bridgeless."""
    import networkx as nx

    ext = {v["id"]: v["external"] for v in doc["vertices"]}
    internal = [(e["src"], e["tgt"]) for e in doc["edges"] if e["internal"]]
    verts = [v for v, x in ext.items() if not x]
    count = 0
    for mask in range(1, (1 << len(internal)) - 1):
        chosen = nx.MultiGraph()
        rest = []
        for i, edge in enumerate(internal):
            if mask >> i & 1:
                chosen.add_edge(*edge)
            else:
                rest.append(edge)
        comps = list(nx.connected_components(chosen))
        if any(nx.has_bridges(chosen.subgraph(c)) for c in comps):
            continue
        rep = {v: min(c) for c in comps for v in c}
        quotient = nx.MultiGraph()
        quotient.add_nodes_from({rep.get(v, v) for v in verts})
        loop = False
        for a, b in rest:
            a, b = rep.get(a, a), rep.get(b, b)
            if a == b:
                loop = True
                break
            quotient.add_edge(a, b)
        if loop or not rest or not nx.is_connected(quotient) or nx.has_bridges(quotient):
            continue
        count += 1
    return count


def _degree(doc: dict) -> int:
    return sum(1 for e in doc["edges"] if e["internal"])


# ---------------------------------------------------------------------------
# renorm
# ---------------------------------------------------------------------------


def check_renorm(job) -> list[str]:
    out = job.outputs
    C = job.C
    hopf_mod = C.hopf
    problems = []
    for (name, g), (_, plus) in zip(out["graphs"], out["laurent"]):
        if any(e < 0 for e in plus.coeffs):
            problems.append(f"{name}: Laurent phi_+ has a pole: {plus!r}")
        if out["pair"].factorization_lhs(g) != out["pair"].phi(g):
            problems.append(f"{name}: (phi_- o S) * phi_+ does not recover phi (Laurent)")
    for (name, g), (_, plus) in zip(out["log_graphs"], out["logform"]):
        if any(kind == "polar" for key in plus.terms for _, (kind, _) in key):
            problems.append(f"{name}: log-form phi_+ has a nonzero iterated residue")
        if out["log_pair"].factorization_lhs(g) != out["log_pair"].phi(g):
            problems.append(f"{name}: (phi_- o S) * phi_+ does not recover phi (log forms)")
    framed = [(n, g) for n, g in out["graphs"] if g.degree() <= out["frame_degree"]]
    for (name, g), (_, frame_value) in zip(framed, out["beta_frame"]):
        if frame_value != out["pair"].phi_minus(g):
            problems.append(f"{name}: the universal frame does not reproduce phi_-")
    hopf = out["hopf"]
    for name, g in out["graphs"]:
        total = hopf_mod.HopfElement.zero()
        for (left, right), c in hopf.coproduct(g).terms.items():
            total = total + c * (hopf.antipode(hopf_mod.HopfElement.from_monomial(left))
                                 * hopf_mod.HopfElement.from_monomial(right))
        if total.terms:
            problems.append(f"{name}: m(S (x) id)Delta != eta epsilon")
    for (name, g), (_, doc) in zip(out["graphs"], job.graph_docs):
        terms = hopf.coproduct_generator(g).terms
        found = sum(terms.values()) - 2
        expected = admissible_count(doc)
        if found != expected:
            problems.append(f"{name}: {found} admissible subgraphs, networkx finds {expected}")
    return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


@lru_cache(maxsize=None)
def _gegen_poly(d: int, lam: Fraction) -> dict[int, Fraction]:
    """Monomial coefficients of C_d^(lam) from sympy."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.gegenbauer(d, sympy.Rational(lam.numerator, lam.denominator), x), x)
    return {k[0]: Fraction(int(c.p), int(c.q)) for k, c in poly.terms()}


@lru_cache(maxsize=None)
def _cheb_poly(n: int) -> dict[int, Fraction]:
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.chebyshevt(n, x), x)
    return {k[0]: Fraction(int(c.p), int(c.q)) for k, c in poly.terms()}


def _combine(coeffs: dict[int, Fraction], lam: Fraction) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for d, c in coeffs.items():
        for p, a in _gegen_poly(d, lam).items():
            out[p] = out.get(p, Fraction(0)) + c * a
    return {p: c for p, c in out.items() if c}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for p, x in a.items():
        for q, y in b.items():
            out[p + q] = out.get(p + q, Fraction(0)) + x * y
    return {p: c for p, c in out.items() if c}


def _binom(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= (a - i) / (i + 1)
    return out


def _series_slices(weights, radial: int) -> list[dict[int, Fraction]]:
    """u^n coefficients (polynomials in x), n <= radial, of
    sum_k w_k y^k with y = u^2 - 2 u x, i.e. y^k = sum_j C(k, j) (-2x)^(k-j) u^(k+j)."""
    out = []
    for n in range(radial + 1):
        poly: dict[int, Fraction] = {}
        for k in range((n + 1) // 2, n + 1):
            w = weights(k)
            if w:
                c = w * math.comb(k, n - k) * (-2) ** (2 * k - n)
                poly[2 * k - n] = poly.get(2 * k - n, Fraction(0)) + c
        out.append({p: c for p, c in poly.items() if c})
    return out


def expected_tensor_slices(D: int, ell: Fraction, radial: int):
    """Per symbol key, the u^n slices of the bare edge factor:
    (1 - 2ux + u^2)^ell on the power branch; on the log branch (integer lam,
    ell >= 0) the log(rho) part (1 - 2ux + u^2)^ell and the plain part
    (1 - 2ux + u^2)^ell (k0 + log(1 - 2ux + u^2) / 2) with
    k0 = log m - log 2 + gamma - (H_ell + H_(lam+ell)) / 2."""
    lam = Fraction(D - 2, 2)
    power = _series_slices(lambda k: _binom(ell, k), radial)
    if lam.denominator == 2 or ell < 0:
        return {"plain": {(0, 0, 0, 0): power}, "log_rho": {}}
    half_log = _series_slices(lambda k: Fraction((-1) ** (k + 1), 2 * k) if k else 0, radial)
    series = []
    for n in range(radial + 1):
        acc: dict[int, Fraction] = {}
        for j in range(n + 1):
            for p, c in _poly_mul(power[j], half_log[n - j]).items():
                acc[p] = acc.get(p, Fraction(0)) + c
        series.append({p: c for p, c in acc.items() if c})
    harmonic = sum((Fraction(1, k) for k in range(1, int(ell) + 1)), Fraction(0)) \
        + sum((Fraction(1, k) for k in range(1, int(lam + ell) + 1)), Fraction(0))
    const = []
    for n in range(radial + 1):
        acc = dict(series[n])
        for p, c in power[n].items():
            acc[p] = acc.get(p, Fraction(0)) - harmonic / 2 * c
        const.append({p: c for p, c in acc.items() if c})
    minus_power = [{p: -c for p, c in sl.items()} for sl in power]
    return {"plain": {(0, 0, 0, 0): const, (0, 1, 0, 0): power, (0, 0, 1, 0): power,
                      (0, 0, 0, 1): minus_power},
            "log_rho": {(0, 0, 0, 0): power}}


def _symbolic_entry(coeff: list[dict]) -> dict[tuple, Fraction] | None:
    """Symbol key (m, log m, gamma, log 2 exponents) -> rational; None when a
    value is not rational."""
    out = {}
    for term in coeff:
        key = (Fraction(term["m_exp"]), term["logm_exp"], term["gamma_exp"], term["log2_exp"])
        value = Fraction(0)
        for part in term["value"]:
            if part["pi_half_exp"] or part.get("sqrt2"):
                return None
            value += Fraction(part["rational"])
        out[key] = value
    return out


def check_tensor(doc: dict, D: int, ell: Fraction) -> list[str]:
    exp = doc["expansion"]
    lam = Fraction(exp["lambda"])
    radial = exp["radial_order"]
    expected = expected_tensor_slices(D, ell, radial)
    problems = []
    for part in ("plain", "log_rho"):
        by_key: dict[tuple, dict[int, dict[int, Fraction]]] = {}
        for entry in exp[part]:
            sym = _symbolic_entry(entry["coeff"])
            if sym is None:
                return [f"{part} entry ({entry['radial']},{entry['degree']}) is not rational"]
            for key, c in sym.items():
                by_key.setdefault(key, {}).setdefault(entry["radial"], {})[entry["degree"]] = c
        keys = set(by_key) | set(expected[part])
        for key in keys:
            slices = expected[part].get(key, [{}] * (radial + 1))
            for n in range(radial + 1):
                got = _combine(by_key.get(key, {}).get(n, {}), lam)
                if got != slices[n]:
                    problems.append(f"{part} slice u^{n}, symbol {key}: sum over degrees "
                                    f"differs from the closed form")
                    break
    return problems


def check_cli(job) -> list[str]:
    problems = []
    for out in job.outputs:
        argv = out["argv"]
        where = " ".join(argv[:1] + [a for a in argv[1:] if not a.startswith("/")])
        if out["rc"] != 0:
            problems.append(f"{where}: exit code {out['rc']}: {out['stderr']}")
            continue
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: output is not JSON ({exc})")
            continue
        problems += [f"{where}: {p}" for p in _check_cli_doc(argv, doc)]
    return problems


def _check_cli_doc(argv, doc) -> list[str]:
    cmd = argv[0]
    if cmd == "prop-eval":
        D = int(_flag(argv, "--D"))
        m = float(_flag(argv, "--m"))
        kind = _flag(argv, "--kind")
        if kind == "boson":
            x = [float(c) for c in _flag(argv, "--x").split(",")]
            expected, scale = boson_kernel(D, m, x, float(_flag(argv, "--alpha")),
                                           int(_flag(argv, "--mu")), int(_flag(argv, "--nu")))
            return [] if _close(doc["value"], expected, scale, KERNEL_RTOL) else \
                [f"boson {doc['value']!r} against {expected!r}"]
        r = float(_flag(argv, "--r"))
        if kind == "dirac":
            a, b = dirac_kernel(D, m, r)
            ok = _close(doc["a"], a, a, KERNEL_RTOL) and _close(doc["b"], b, b, KERNEL_RTOL)
            return [] if ok else [f"dirac {doc!r} against a={a!r}, b={b!r}"]
        expected = scalar_kernel(D, m, r) if kind == "gm" else complex_kernel(D, m, r)
        return [] if _close(doc["value"], expected, expected, KERNEL_RTOL) else \
            [f"{kind} {doc['value']!r} against {expected!r}"]
    if cmd == "prop-expand":
        return check_tensor(doc, int(_flag(argv, "--D")), Fraction(_flag(argv, "--ell")))
    if cmd == "gegen":
        return _check_gegen(argv, doc)
    if cmd == "divisors":
        n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
        count = (k + 1) * (2 ** n - 1) + 2 ** n - n - 1
        ok = doc["count"] == count == len(set(doc["labels"]))
        return [] if ok else [f"{doc['count']} divisor labels, expected {count}"]
    graphs = {g["name"]: g for g in json.loads(
        open(_flag(argv, "--graphs")).read())}
    if cmd == "graph-coproduct":
        bad = []
        for entry in doc["graphs"]:
            found = sum(Fraction(t["coeff"]) for t in entry["coproduct"]) - 2
            expected = admissible_count(graphs[entry["name"]])
            if found != expected:
                bad.append(f"{entry['name']}: {found} admissible subgraphs, networkx finds "
                           f"{expected}")
        return bad
    if cmd == "graph-antipode":
        bad = []
        for entry in doc["graphs"]:
            degree = _degree(graphs[entry["name"]])
            for t in entry["antipode"]:
                if sum(_degree(doc["labels"][lbl]) for lbl in t["monomial"]) != degree:
                    bad.append(f"{entry['name']}: antipode term of the wrong degree")
        return bad
    if cmd == "renorm":
        bad = []
        phi = json.loads(open(_flag(argv, "--phi")).read()) if "--phi" in argv else None
        for entry in doc["graphs"]:
            if doc["target"] == "laurent":
                if not entry["polar_free"] or any(int(e) < 0 for e in
                                                  entry["phi_plus"]["coeffs"]):
                    bad.append(f"{entry['name']}: phi_+ is not polar-free")
                want = {e: str(Fraction(c)) for e, c in phi[entry["name"]].items()
                        if Fraction(c)}
                if entry["phi"]["coeffs"] != want:
                    bad.append(f"{entry['name']}: phi differs from the input values")
            elif not entry["residue_free"]:
                bad.append(f"{entry['name']}: phi_+ is not residue-free")
        return bad
    if cmd == "beta":
        return [f"{e['name']}: frame does not match phi_-" for e in doc["graphs"]
                if e["degree"] <= int(_flag(argv, "--degree")) and
                not e.get("frame_matches_phi_minus")]
    return [f"no check for {cmd}"]


def _check_gegen(argv, doc) -> list[str]:
    op = _flag(argv, "--op")
    lam = Fraction(_flag(argv, "--lambda"))
    n, m = int(_flag(argv, "--n", 0)), int(_flag(argv, "--m", 0))
    if op == "coeffs":
        got = {int(p): Fraction(c) for p, c in doc.items()}
        return [] if got == _gegen_poly(n, lam) else ["C_n coefficients differ from sympy"]
    if any(not isinstance(c, str) for c in doc.values()):
        return ["non-rational combination coefficient"]
    got = _combine({int(d): Fraction(c) for d, c in doc.items()}, lam)
    if op == "monomial":
        want = {m: Fraction(1)}
    elif op == "chebyshev":
        want = _cheb_poly(n)
    elif op == "product":
        want = _poly_mul(_gegen_poly(n, lam), _gegen_poly(m, lam))
    else:
        return [f"no check for gegen --op {op}"]
    return [] if got == want else [f"gegen --op {op}: combination differs from sympy"]
