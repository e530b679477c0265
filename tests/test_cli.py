"""CLI behavior: documented examples, schemas, exit codes, golden stability."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import confeyn
from confeyn import cli
from confeyn.cli import (BETA_MAX_DEGREE, DIVISORS_MAX_K, DIVISORS_MAX_N, EXPAND_MAX_D,
                         EXPAND_MAX_ELL, EXPAND_MAX_GEGEN_CAP, EXPAND_MAX_RADIAL,
                         GEGEN_MAX_D, GEGEN_MAX_ELL, GEGEN_MAX_LAMBDA, GEGEN_MAX_M,
                         GEGEN_MAX_N, GRAPH_MAX_INTERNAL_EDGES, GRAPH_MAX_VERTICES,
                         PROP_MAX_D, QUAD_MAX_POINTS, RENORM_MAX_INTERNAL_EDGES, main)
from confeyn.feyngraph import FeynmanGraph
from test_acceptance import GOLDENS, golden_suite


def coeff_value(entries: list[dict], m: float) -> float:
    """A prop-expand coefficient, a list of entries with m, log(m), gamma and
    log(2) exponents over scalar terms, at the mass m."""
    total = 0.0
    for e in entries:
        scalar = sum(float(Fraction(t["rational"])) * math.sqrt(2) ** t.get("sqrt2", 0)
                     * math.pi ** (t["pi_half_exp"] / 2) for t in e["value"])
        total += (scalar * m ** float(Fraction(e["m_exp"])) * math.log(m) ** e["logm_exp"]
                  * 0.5772156649015329 ** e["gamma_exp"] * math.log(2) ** e["log2_exp"])
    return total


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None)


@pytest.fixture()
def graphs_file(tmp_path):
    banana = FeynmanGraph.build(2, [(0, 1), (0, 1)])
    dt = FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
    doc = {"graphs": [
        dict(name="banana", **banana.to_json()),
        dict(name="dtriangle", **dt.to_json()),
    ]}
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def phi_file(tmp_path):
    doc = {"banana": {"-2": "1", "0": "3", "1": "1"},
           "dtriangle": {"-2": "1", "-1": "2", "0": "3", "1": "1"}}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPropEval:
    def test_d3_closed_form(self, tmp_path):
        code, doc = run_cli(["prop-eval", "--D", "3", "--m", "1", "--r", "1"], tmp_path)
        assert code == 0
        assert float(doc["value"]) == pytest.approx(math.exp(-1) / (4 * math.pi), rel=1e-12)

    def test_kinds(self, tmp_path):
        for kind in ["g0", "gm-integral", "gm-complex"]:
            code, doc = run_cli(["prop-eval", "--D", "4", "--m", "1", "--r", "2",
                                 "--kind", kind], tmp_path)
            assert code == 0 and float(doc["value"]) > 0
        code, doc = run_cli(["prop-eval", "--D", "4", "--r", "2",
                             "--kind", "g0-complex"], tmp_path)
        assert code == 0 and doc["i_power"] == 2
        code, doc = run_cli(["prop-eval", "--D", "4", "--m", "1.2", "--r", "1.5",
                             "--kind", "dirac"], tmp_path)
        assert code == 0 and float(doc["a"]) > 0 and float(doc["b"]) > 0
        code, doc = run_cli(["prop-eval", "--D", "4", "--m", "1.0",
                             "--x", "1,0,0,0", "--kind", "boson",
                             "--alpha", "2", "--mu", "1", "--nu", "1"], tmp_path)
        assert code == 0

    def test_g0_complex_beyond_the_double_factorial(self, tmp_path):
        # (D-2)! overflows a double from D = 173 and 10^(2-2D) underflows at
        # D = 172; the magnitude is about 3.7e-173 and 1.0e-173
        for D, want in (("172", 3.7483888489714e-173), ("173", 1.0201425898447e-173)):
            code, doc = run_cli(["prop-eval", "--D", D, "--r", "10", "--kind", "g0-complex"],
                                tmp_path)
            assert code == 0 and doc["magnitude"] == pytest.approx(want, rel=1e-12, abs=0)
        code, _ = run_cli(["prop-eval", "--D", "400", "--r", "0.1", "--kind", "g0-complex"],
                          tmp_path)
        assert code == 2

    def test_gm_complex_beyond_the_double_product(self, tmp_path):
        # (2 pi)^-200 10^-199 underflows; the scaled product gives mpmath's value
        code, doc = run_cli(["prop-eval", "--kind", "gm-complex", "--D", "200", "--r", "10",
                             "--m", "1"], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(1.6223831740412056e-128, rel=1e-12, abs=0)

    @pytest.mark.parametrize("flags", [
        ["--kind", "gm-complex", "--D", "300", "--r", "1", "--m", "1"],
        ["--kind", "gm", "--D", "600", "--r", "1", "--m", "1"],
        ["--kind", "g0", "--D", "2000", "--r", "10"],
        ["--kind", "dirac", "--D", "1000", "--r", "1", "--m", "1"],
        ["--kind", "boson", "--D", "1000", "--r", "1", "--m", "1", "--alpha", "2"],
    ], ids=["gm-complex", "gm", "g0", "dirac", "boson"])
    def test_values_beyond_the_doubles_exit_2(self, flags, tmp_path):
        # mpmath at 60 digits: 6.1e+459 (gm-complex), a = 3.2e+882 (dirac) and
        # 8.1e+881 (boson); each printed 0, inf or nan with exit 0 once
        code, _ = run_cli(["prop-eval", *flags], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("flags, want, rel", [
        (["--kind", "gm-complex", "--D", "200"], {"value": 1.8383266702822033e+270}, 1e-13),
        (["--kind", "dirac", "--D", "400"],
         {"a": 7.3165865698163029e+272, "b": 1.8383266702822033e+270}, 1e-13),
        # a difference of terms about 1,600 times larger, so a few ulps of
        # each term show as 3e-13 here
        (["--kind", "boson", "--D", "400", "--alpha", "2"], {"value": 1.8435072394784152e+272},
         1e-12),
    ], ids=["gm-complex", "dirac", "boson"])
    def test_values_past_the_k_nu_overflow_print(self, flags, want, rel, tmp_path):
        # mpmath at 60 digits; K_nu overflowed a double here, so each exited 2
        # although the value is a normal double
        code, doc = run_cli(["prop-eval", "--r", "1", "--m", "1", *flags], tmp_path)
        assert code == 0
        for key, value in want.items():
            assert doc[key] == pytest.approx(value, rel=rel, abs=0), key

    def test_tiny_mass_prints(self, tmp_path):
        # mpmath at 60 digits; one K_nu ladder step at z = 1e-160 overflowed,
        # so this exited 2, though --m 1e-100 printed the same value
        code, doc = run_cli(["prop-eval", "--kind", "gm", "--D", "22", "--r", "1",
                             "--m", "1e-160"], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(0.30835744740933833, rel=1e-12, abs=0)

    @pytest.mark.parametrize("flags", [
        ["--kind", "dirac", "--D", "4", "--r", "800"],
        ["--kind", "dirac", "--D", "4", "--r", "705"],
        ["--kind", "boson", "--D", "4", "--r", "1500", "--alpha", "2"],
        ["--kind", "boson", "--D", "100", "--r", "600", "--alpha", "4"],
    ], ids=["dirac-zero", "dirac-subnormal", "boson-zero", "boson-subnormal"])
    def test_values_below_the_normal_doubles_exit_2(self, flags, tmp_path):
        # each printed 0 or a subnormal with exit 0 before, where gm refuses
        code, _ = run_cli(["prop-eval", "--m", "1", *flags], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("flags, want", [
        (["--kind", "dirac"], {"a": 6.4611793374374028e-128, "b": 1.6223831740412056e-128}),
        (["--kind", "boson", "--alpha", "1.5", "--mu", "1", "--nu", "1"],
         {"value": 1.3462184549623695e-128}),
        (["--kind", "boson", "--alpha", "1.5", "--mu", "0", "--nu", "0"],
         {"value": 1.1131777930196991e-126}),
    ], ids=["dirac", "boson-11", "boson-00"])
    def test_high_dimension_values_past_the_plain_prefactor(self, flags, want, tmp_path):
        # mpmath at 60 digits; the prefactor (2 pi)^-201 10^-199 alone is below
        # the doubles, which made Dirac exit 2 and boson print -2.7616e-129
        # (1,1) and 1.09695e-126 (0,0)
        code, doc = run_cli(["prop-eval", "--D", "400", "--m", "1", "--r", "10", *flags], tmp_path)
        assert code == 0
        for key, value in want.items():
            assert doc[key] == pytest.approx(value, rel=1e-11, abs=0), key

    def test_small_normal_and_symmetric_zero_boson_values_print(self, tmp_path):
        # mpmath at 40 digits gives 2.26884509216146802e-223
        code, doc = run_cli(["prop-eval", "--kind", "boson", "--D", "4", "--m", "1",
                             "--r", "705", "--alpha", "2"], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(2.268845092161468e-223, rel=1e-13, abs=0)
        code, doc = run_cli(["prop-eval", "--kind", "boson", "--D", "4", "--m", "1",
                             "--x", "1,0,0,0", "--mu", "1", "--nu", "2", "--alpha", "2"], tmp_path)
        assert code == 0 and doc["value"] == 0
        # at alpha = 1 only g_mu_nu G is left: 0 off the diagonal, even where G underflows
        code, doc = run_cli(["prop-eval", "--kind", "boson", "--D", "4", "--m", "1",
                             "--r", "1500", "--alpha", "1", "--mu", "0", "--nu", "1"], tmp_path)
        assert code == 0 and doc["value"] == 0

    @pytest.mark.parametrize("flags", [
        ["--kind", "boson", "--m", "1", "--alpha", "2", "--x", "1,2", "--mu", "3", "--nu", "3"],
        ["--m", "1", "--x", "1,0,0,0,0,0"],
    ], ids=["short", "long"])
    def test_x_needs_D_components(self, flags, tmp_path):
        # the short vector raised IndexError (exit 1), the long one was accepted
        code, _ = run_cli(["prop-eval", "--D", "4", *flags], tmp_path)
        assert code == 2

    def test_extreme_distances_are_not_squared(self, tmp_path):
        # sqrt(sum x^2) underflowed to 0 (a diagonal error) at r = 1e-200 and
        # overflowed to inf at r = 1e200, where g0 then recursed without end;
        # a distance beyond the doubles is refused in test_propagators
        code, doc = run_cli(["prop-eval", "--kind", "g0", "--D", "3", "--r", "1e-200"], tmp_path)
        assert code == 0 and doc["value"] == 1e200
        code, doc = run_cli(["prop-eval", "--kind", "g0", "--D", "3", "--r", "1e200"], tmp_path)
        assert code == 0 and doc["value"] == 1e-200
        code, doc = run_cli(["prop-eval", "--kind", "g0", "--D", "3",
                             "--x", "3e-200,4e-200,0"], tmp_path)
        assert code == 0 and doc["value"] == pytest.approx(2e199, rel=1e-15)

    @pytest.mark.parametrize("flags", [
        ["--kind", "boson", "--D", "4", "--r", "1", "--m", "1e-170", "--alpha", "2"],
        ["--kind", "boson", "--D", "4", "--x", "0.6,0.8,0,0", "--m", "1e-20", "--alpha", "2",
         "--mu", "0", "--nu", "1"],
        ["--kind", "gm-integral", "--D", "4", "--r", "1", "--m", "1e-170"],
    ], ids=["boson-m2-underflow", "boson-cancellation", "gm-integral-m2-underflow"])
    def test_tiny_mass_exits_2_with_a_message(self, flags, tmp_path, capsys):
        # m^2 = 0 raised ZeroDivisionError; at m = 1e-20 the boson printed
        # -1.64e23, where mpmath gives +6.08e17
        code, _ = run_cli(["prop-eval", *flags], tmp_path)
        assert code == 2 and capsys.readouterr().err.startswith("error: ")

    def test_no_argument_ends_in_a_traceback(self, capsys):
        # g0 and g0-complex once raised RecursionError, boson and gm-integral
        # ZeroDivisionError, on parts of this grid
        extremes = ("1e-300", "1e-20", "1", "1e20", "1e300")
        kinds = ("gm", "g0", "gm-integral", "gm-complex", "g0-complex", "dirac", "boson")
        codes = {(kind, D, m, r): main(["prop-eval", "--kind", kind, "--D", str(D),
                                        "--m", m, "--r", r, "--alpha", "2"])
                 for kind in kinds for D in (3, 4, 6, 12) for m in extremes for r in extremes}
        capsys.readouterr()
        assert {args for args, code in codes.items() if code not in (0, 2)} == set()
        assert {kind for (kind, *_), code in codes.items() if code == 0} == set(kinds)

    def test_diagonal_is_validation_error(self, tmp_path):
        code, _ = run_cli(["prop-eval", "--D", "4", "--m", "1", "--r", "0"], tmp_path)
        assert code == 2

    def test_negative_r_exits_2(self, tmp_path):
        # printed the value at r = 1 with exit 0
        code, _ = run_cli(["prop-eval", "--D", "4", "--m", "1", "--r", "-1"], tmp_path)
        assert code == 2

    def test_quadrature_failure_exit_code(self, tmp_path):
        code, _ = run_cli(["prop-eval", "--D", "4", "--m", "1", "--r", "1",
                           "--kind", "gm-integral", "--quad-points", "8"], tmp_path)
        assert code == 3


class TestPropExpand:
    def test_taylor_round_trip(self, tmp_path):
        code, doc = run_cli(["prop-expand", "--D", "4", "--method", "taylor",
                             "--ell", "0"], tmp_path)
        assert code == 0
        assert coeff_value(doc["coeff_log"], 2.0) == pytest.approx(
            4.0 / (2 * (2 * math.pi) ** 2), rel=1e-13)

    def test_asymptotic(self, tmp_path):
        code, doc = run_cli(["prop-expand", "--D", "4", "--method", "asymptotic",
                             "--ell", "1"], tmp_path)
        assert code == 0
        assert doc["r_exponent"] == "-5/2"

    def test_ell_is_printed_as_a_rational_by_every_method(self, tmp_path):
        # asymptotic printed the flag's text, "2.0"
        for method in ("taylor", "asymptotic", "gegenbauer"):
            code, doc = run_cli(["prop-expand", "--D", "4", "--method", method,
                                 "--ell", "2.0", "--radial", "2"], tmp_path)
            assert code == 0 and doc["ell"] == "2", method

    @pytest.mark.parametrize("flags", [
        ["--method", "gegenbauer", "--ell", "1", "--radial", "-3"],
        ["--method", "gegenbauer", "--ell", "1", "--radial", "4", "--gegen-cap", "-1"],
        ["--method", "asymptotic", "--ell", "3/2"],
        ["--method", "taylor", "--ell", "1/2"],
        ["--method", "gegenbauer", "--ell=-1/2"],
    ], ids=["radial", "gegen-cap", "asymptotic-ell", "taylor-ell", "gegenbauer-ell"])
    def test_invalid_orders_and_indices_exit_2(self, flags, tmp_path):
        # each printed an empty expansion or the term of another index, with exit 0
        code, _ = run_cli(["prop-expand", "--D", "4", *flags], tmp_path)
        assert code == 2

    def test_gegenbauer_tensor(self, tmp_path):
        code, doc = run_cli(["prop-expand", "--D", "4", "--method", "gegenbauer",
                             "--ell", "-1", "--radial", "4"], tmp_path)
        assert code == 0
        entries = {(e["radial"], e["degree"]) for e in doc["expansion"]["plain"]}
        assert entries == {(n, n) for n in range(5)}


class TestGegen:
    def test_monomial_example(self, tmp_path):
        code, doc = run_cli(["gegen", "--op", "monomial", "--m", "2",
                             "--lambda", "1"], tmp_path)
        assert code == 0 and doc == {"0": "1/4", "2": "1/4"}

    def test_ops(self, tmp_path):
        code, doc = run_cli(["gegen", "--op", "coeffs", "--n", "2",
                             "--lambda", "1/2"], tmp_path)
        assert code == 0 and doc == {"0": "-1/2", "2": "3/2"}
        code, doc = run_cli(["gegen", "--op", "chebyshev", "--n", "2",
                             "--lambda", "1"], tmp_path)
        assert code == 0 and doc == {"0": "-1/2", "2": "1/2"}
        code, doc = run_cli(["gegen", "--op", "reproject", "--ell", "2",
                             "--n", "1", "--lambda", "1"], tmp_path)
        assert code == 0 and doc == {"1": "2"}
        code, doc = run_cli(["gegen", "--op", "product", "--n", "1", "--m", "1",
                             "--lambda", "1/2"], tmp_path)
        assert code == 0 and doc == {"0": "1/3", "2": "2/3"}
        code, doc = run_cli(["gegen", "--op", "zonal", "--D", "3", "--n", "0"],
                            tmp_path)
        assert code == 0
        assert doc["value"] == [{"pi_half_exp": 2, "rational": "4"}]

    @pytest.mark.parametrize("flags", [
        ["--op", "chebyshev", "--lambda", "1", "--n", "-1"],
        ["--op", "reproject", "--lambda", "1", "--ell", "2", "--n", "-2"],
        ["--op", "generating", "--lambda", "1", "--n", "-3", "--x", "0.5"],
    ], ids=["chebyshev", "reproject", "generating"])
    def test_negative_degree_exits_2(self, flags, tmp_path):
        # printed {"1":"1/2"}, {} and {"value":0} with exit 0
        code, _ = run_cli(["gegen", *flags], tmp_path)
        assert code == 2

    def test_bad_weight_is_validation_error(self, tmp_path):
        code, _ = run_cli(["gegen", "--op", "monomial", "--m", "2",
                           "--lambda", "1/4"], tmp_path)
        assert code == 2


# name -> (internal vertices, internal edges)
RELABELLED_SHAPES = {
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K33": (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    "wheel5": (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
    "necklace4": (4, [(i, (i + 1) % 4) for i in range(4) for _ in range(2)]),
}


class TestGraphCommands:
    def test_coproduct(self, tmp_path, graphs_file):
        code, doc = run_cli(["graph-coproduct", "--graphs", graphs_file], tmp_path)
        assert code == 0
        by_name = {g["name"]: g for g in doc["graphs"]}
        assert len(by_name["banana"]["coproduct"]) == 2
        dt_terms = by_name["dtriangle"]["coproduct"]
        assert len(dt_terms) == 3
        nontrivial = [t for t in dt_terms if t["left"] and t["right"]]
        assert len(nontrivial) == 1
        assert nontrivial[0]["left"] == nontrivial[0]["right"]

    def test_antipode(self, tmp_path, graphs_file):
        code, doc = run_cli(["graph-antipode", "--graphs", graphs_file], tmp_path)
        assert code == 0
        by_name = {g["name"]: g for g in doc["graphs"]}
        assert by_name["banana"]["antipode"][0]["coeff"] == "-1"
        assert len(by_name["dtriangle"]["antipode"]) == 2

    @staticmethod
    def relabelled_runs(tmp_path) -> dict[str, list[str]]:
        """The stdout of each graph command on six relabellings of each shape,
        each with two legs and one run of its own."""
        rng = random.Random(5)
        runs = {"graph-coproduct": [], "graph-antipode": []}
        for copy in range(6):
            entries = []
            for name, (nv, edges) in RELABELLED_SHAPES.items():
                perm = rng.sample(range(nv), nv)
                relabelled = [(perm[a], perm[b]) for a, b in edges]
                rng.shuffle(relabelled)
                graph = FeynmanGraph.build(nv, relabelled, legs=[perm[v] for v in edges[0]])
                entries.append(dict(name=name, **graph.to_json()))
            path = tmp_path / f"relabelled{copy}.json"
            path.write_text(json.dumps({"graphs": entries}))
            for command, outs in runs.items():
                assert main([command, "--graphs", str(path), "--out", str(tmp_path / "out")]) == 0
                outs.append((tmp_path / "out").read_text())
        return runs

    def test_term_order_follows_the_isomorphism_classes(self, tmp_path):
        # terms were once sorted by the graphs' repr, which many classes
        # share, so ties fell back to the order of enumeration
        for command, outs in self.relabelled_runs(tmp_path).items():
            docs = [json.loads(out)["graphs"] for out in outs]
            assert all(graphs == docs[0] for graphs in docs), command

    def test_labels_do_not_depend_on_labelling(self, tmp_path):
        # each label once named the first input graph met in its class
        for command, outs in self.relabelled_runs(tmp_path).items():
            assert len(set(outs)) == 1, command
            for label, graph in json.loads(outs[0])["labels"].items():
                graph = FeynmanGraph.from_json(graph)
                assert graph.label() == label
                assert graph.to_json() == graph.canonical_representative().to_json()

    def test_invalid_graph_rejected(self, tmp_path):
        bad = {"graphs": [{"name": "loop", "vertices": [{"id": 0, "external": False}],
                           "edges": [{"src": 0, "tgt": 0, "internal": True}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run_cli(["graph-coproduct", "--graphs", str(path)], tmp_path)
        assert code == 2

    BANANA = {"vertices": [{"id": 0, "external": False}, {"id": 1, "external": False}],
              "edges": [{"src": 0, "tgt": 1, "internal": True}] * 2}

    @pytest.mark.parametrize("field, value, cause", [
        ("src", 0.7, "edge 0 src must be a JSON integer, got 0.7"),
        ("id", True, "vertex id must be a JSON integer, got True"),
        ("repeat", None, "repeated vertex id 0"),
        ("external", "false", "vertex 0 external flag must be a JSON boolean, got 'false'"),
    ])
    def test_malformed_graph_is_refused(self, field, value, cause, tmp_path, capsys):
        # nothing is cast: a float or boolean id, a repeated id and a string
        # flag each exit 2 with the graph and the field named, where they
        # were read as another graph
        doc = json.loads(json.dumps(self.BANANA))
        if field == "src":
            doc["edges"][0]["src"] = value
        elif field == "id":
            doc["vertices"][1]["id"] = value
        elif field == "repeat":
            doc["vertices"].append({"id": 0, "external": False})
        else:
            doc["vertices"][0]["external"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graphs": [dict(name="bad", **doc)]}))
        code, _ = run_cli(["graph-coproduct", "--graphs", str(path)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: graph 'bad': {cause}\n"


class TestRenormAndBeta:
    def test_laurent_report(self, tmp_path, graphs_file, phi_file):
        code, doc = run_cli(["renorm", "--target", "laurent", "--graphs",
                             graphs_file, "--phi", phi_file], tmp_path)
        assert code == 0
        by_name = {g["name"]: g for g in doc["graphs"]}
        assert by_name["banana"]["phi_plus"]["repr"] == "3 + z"
        assert by_name["banana"]["phi_minus"]["coeffs"] == {"-2": "-1"}
        assert all(g["polar_free"] for g in doc["graphs"])

    def test_logform_report(self, tmp_path, graphs_file):
        code, doc = run_cli(["renorm", "--target", "logform", "--graphs",
                             graphs_file, "--seed", "11"], tmp_path)
        assert code == 0
        assert all(g["residue_free"] for g in doc["graphs"])

    def test_k_external_flag_is_gone(self, tmp_path, graphs_file):
        # the toy rule's labels use only the component at infinity, so the
        # number of marked components changed no output and is not an option
        for cmd in ("renorm", "beta"):
            code, _ = run_cli([cmd, "--target", "logform", "--graphs", graphs_file,
                               "--k-external", "1"], tmp_path)
            assert code == 2, cmd

    def test_n_vertices_flag_is_gone(self, tmp_path, graphs_file):
        # the toy labels use only a graph's own points, so the vertex budget
        # changed no output; it only refused graphs above it, such as a
        # 7-cycle at the default budget of 6
        for cmd in ("renorm", "beta"):
            code, _ = run_cli([cmd, "--target", "logform", "--graphs", graphs_file,
                               "--n-vertices", "6"], tmp_path)
            assert code == 2, cmd
        cycle = FeynmanGraph.build(7, [(i, (i + 1) % 7) for i in range(7)], legs=[0, 3])
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps([dict(name="c7", **cycle.to_json())]))
        code, doc = run_cli(["renorm", "--target", "logform", "--graphs", str(path),
                             "--seed", "3"], tmp_path)
        assert code == 0 and [g["name"] for g in doc["graphs"]] == ["c7"]

    def test_exponent_form_phi_is_refused(self, tmp_path, graphs_file, capsys):
        # a 60-byte phi file ran renorm for 47 s before exiting 2 on the
        # integer string conversion limit
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"banana": {"-2": "1e20000000"}, "dtriangle": {"0": "1"}}))
        code, _ = run_cli(["renorm", "--target", "laurent", "--graphs", graphs_file,
                           "--phi", str(path)], tmp_path)
        assert code == 2
        assert "must be a rational such as 3/2, got '1e20000000'" in capsys.readouterr().err

    def test_missing_phi_is_error(self, tmp_path, graphs_file):
        code, _ = run_cli(["renorm", "--target", "laurent", "--graphs",
                           graphs_file], tmp_path)
        assert code == 2

    def test_beta_report(self, tmp_path, graphs_file, phi_file):
        code, doc = run_cli(["beta", "--target", "laurent", "--graphs",
                             graphs_file, "--phi", phi_file, "--degree", "4"],
                            tmp_path)
        assert code == 0
        assert all(g["frame_matches_phi_minus"] for g in doc["graphs"])
        by_name = {g["name"]: g for g in doc["graphs"]}
        # primitive of degree 2: beta = 2 phi_-
        assert by_name["banana"]["beta"]["coeffs"] == {"-2": "-2"}

    def test_beta_logform(self, tmp_path, graphs_file):
        code, doc = run_cli(["beta", "--target", "logform", "--graphs",
                             graphs_file, "--seed", "3", "--degree", "4"], tmp_path)
        assert code == 0
        assert all(g["frame_matches_phi_minus"] for g in doc["graphs"])


class TestDivisors:
    def test_example(self, tmp_path):
        code, doc = run_cli(["divisors", "--n", "2", "--k", "0"], tmp_path)
        assert code == 0
        assert doc["count"] == 4
        assert doc["labels"] == ["sep:inf:1", "sep:inf:1,2", "sep:inf:2", "diag:1,2"]

    def test_count_matches_formula(self, tmp_path):
        code, doc = run_cli(["divisors", "--n", "4", "--k", "2"], tmp_path)
        assert code == 0
        assert doc["count"] == 3 * (2 ** 4 - 1) + (2 ** 4 - 4 - 1)

    def test_n_is_capped(self, tmp_path):
        code, _ = run_cli(["divisors", "--n", str(DIVISORS_MAX_N), "--k", "0"], tmp_path)
        assert code == 0
        code, _ = run_cli(["divisors", "--n", str(DIVISORS_MAX_N + 1), "--k", "0"], tmp_path)
        assert code == 2

    def test_k_is_capped(self, tmp_path):
        code, doc = run_cli(["divisors", "--n", "3", "--k", str(DIVISORS_MAX_K)], tmp_path)
        assert code == 0
        assert doc["count"] == (DIVISORS_MAX_K + 1) * (2 ** 3 - 1) + (2 ** 3 - 3 - 1)
        code, _ = run_cli(["divisors", "--n", "3", "--k", str(DIVISORS_MAX_K + 1)], tmp_path)
        assert code == 2


class TestGegenCap:
    def test_n_is_capped(self, tmp_path):
        args = ["gegen", "--op", "generating", "--lambda", "1", "--x", "0.7"]
        code, _ = run_cli(args + ["--n", str(GEGEN_MAX_N)], tmp_path)
        assert code == 0
        code, _ = run_cli(args + ["--n", str(GEGEN_MAX_N + 1)], tmp_path)
        assert code == 2


class TestArgumentCaps:
    """Each size argument admits its maximum and exits 2 one above it."""

    CASES = {
        "quad-points": (["prop-eval", "--D", "4", "--m", "1", "--r", "1",
                         "--quad-points"], QUAD_MAX_POINTS),
        "radial": (["prop-expand", "--D", "4", "--method", "gegenbauer", "--ell", "-1",
                    "--radial"], EXPAND_MAX_RADIAL),
        "ell": (["prop-expand", "--D", "4", "--method", "taylor", "--ell"],
                EXPAND_MAX_ELL),
        "gegen-cap": (["prop-expand", "--D", "4", "--method", "gegenbauer", "--ell", "0",
                       "--radial", "4", "--gegen-cap"], EXPAND_MAX_GEGEN_CAP),
        "gegen-m": (["gegen", "--op", "monomial", "--lambda", "1", "--m"], GEGEN_MAX_M),
        "gegen-lambda": (["gegen", "--op", "monomial", "--m", "2", "--lambda"],
                         GEGEN_MAX_LAMBDA),
        "gegen-ell": (["gegen", "--op", "reproject", "--n", "2", "--lambda", "1", "--ell"],
                      GEGEN_MAX_ELL),
        "gegen-D": (["gegen", "--op", "zonal", "--n", "2", "--D"], GEGEN_MAX_D),
        "expand-D": (["prop-expand", "--method", "taylor", "--ell", "1", "--D"],
                     EXPAND_MAX_D),
        "prop-D": (["prop-eval", "--kind", "g0", "--r", "1", "--D"], PROP_MAX_D),
        "degree": (["beta", "--target", "logform", "--graphs", "{graphs}",
                    "--degree"], BETA_MAX_DEGREE),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_capped(self, name, tmp_path, graphs_file):
        prefix, cap = self.CASES[name]
        args = [a.format(graphs=graphs_file) for a in prefix]
        code, _ = run_cli(args + [str(cap)], tmp_path)
        assert code == 0
        code, _ = run_cli(args + [str(cap + 1)], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("name", sorted(set(CASES) - {"ell", "gegen-lambda", "gegen-ell"}))
    def test_negative_size_exits_2(self, name, tmp_path, graphs_file, capsys):
        # beta --degree -1 exited 0 and dropped every frame check
        prefix, _ = self.CASES[name]
        args = [a.format(graphs=graphs_file) for a in prefix]
        assert run_cli(args + ["-1"], tmp_path)[0] == 2
        assert "-1 is below the minimum 0" in capsys.readouterr().err

    def test_negative_ell_is_capped(self, tmp_path):
        args = ["prop-expand", "--D", str(2 * EXPAND_MAX_ELL + 4), "--method", "taylor"]
        code, _ = run_cli(args + ["--ell", str(-EXPAND_MAX_ELL)], tmp_path)
        assert code == 0
        code, _ = run_cli(args + ["--ell", str(-EXPAND_MAX_ELL - 1)], tmp_path)
        assert code == 2

    def test_lambda_denominator_is_capped(self, tmp_path):
        # the generating series takes any rational weight; a long denominator
        # (1/10^300) cost 12 s before the cap
        args = ["gegen", "--op", "generating", "--n", "8", "--x", "0.3", "--lambda"]
        assert run_cli(args + [f"1/{GEGEN_MAX_LAMBDA}"], tmp_path)[0] == 0
        assert run_cli(args + [f"1/{GEGEN_MAX_LAMBDA + 1}"], tmp_path)[0] == 2

    def test_exponent_form_is_refused(self, tmp_path, capsys):
        # Fraction("1e10000000") alone took 12 s
        for args in (["prop-expand", "--D", "4", "--ell", "1e10000000"],
                     ["gegen", "--op", "monomial", "--m", "2", "--lambda", "1E9"]):
            assert run_cli(args, tmp_path)[0] == 2
            assert "must be a rational such as 3/2" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--op", "coeffs", "--n", "3"],
                                      ["--op", "reproject", "--n", "3", "--lambda", "1"]])
    def test_missing_weight_is_a_validation_error(self, args, tmp_path, capsys):
        assert run_cli(["gegen", *args], tmp_path)[0] == 2
        assert "is required" in capsys.readouterr().err

    GRAPH_COMMANDS = [["graph-coproduct"], ["graph-antipode"],
                      ["renorm", "--target", "logform"], ["beta", "--target", "logform"]]

    @pytest.mark.parametrize("command", GRAPH_COMMANDS, ids=lambda c: c[0])
    def test_graph_size_is_capped(self, command, tmp_path, capsys):
        # a ring of 8 vertices with a leg on each, then one leg more; a banana
        # at the command's internal edge cap, then with one edge more
        ring = list(range(GRAPH_MAX_VERTICES // 2))
        edge_cap = (RENORM_MAX_INTERNAL_EDGES if command[0] in ("renorm", "beta")
                    else GRAPH_MAX_INTERNAL_EDGES)
        cases = [
            (FeynmanGraph.build(len(ring), [(i, (i + 1) % len(ring)) for i in ring], legs=ring),
             FeynmanGraph.build(len(ring), [(i, (i + 1) % len(ring)) for i in ring],
                                legs=ring + [0]),
             f"vertex count {GRAPH_MAX_VERTICES + 1} exceeds the maximum {GRAPH_MAX_VERTICES}"),
            (FeynmanGraph.build(2, [(0, 1)] * edge_cap),
             FeynmanGraph.build(2, [(0, 1)] * (edge_cap + 1)),
             f"internal edge count {edge_cap + 1} exceeds the maximum {edge_cap}")]
        for at_cap, above, message in cases:
            for graph, code in ((at_cap, 0), (above, 2)):
                path = tmp_path / "graphs.json"
                path.write_text(json.dumps([dict(name="big", **graph.to_json())]))
                assert run_cli(command + ["--graphs", str(path)], tmp_path)[0] == code
                if code:
                    assert f"error: graph 'big': {message}" in capsys.readouterr().err

    def test_too_few_quad_points(self, tmp_path):
        code, _ = run_cli(["prop-eval", "--D", "4", "--m", "1", "--r", "1",
                           "--kind", "gm-integral", "--quad-points", "1"], tmp_path)
        assert code == 2

    def test_bounds_are_named_where_parsed(self, tmp_path, capsys):
        for args, message in (
                (["prop-eval", "--D", str(PROP_MAX_D + 1)],
                 f"argument --D: {PROP_MAX_D + 1} exceeds the maximum {PROP_MAX_D}"),
                (["beta", "--target", "logform", "--graphs", "g.json", "--degree", "2.5"],
                 f"argument --degree: must be an integer at most {BETA_MAX_DEGREE}"),
                (["gegen", "--op", "monomial", "--m", "2", "--lambda", "1/0"],
                 "argument --lambda: must be a rational such as 3/2")):
            assert run_cli(args, tmp_path)[0] == 2
            assert message in capsys.readouterr().err

    def test_unused_lambda_is_still_parsed(self, tmp_path, capsys):
        # zonal needs no weight, and ignored a malformed one with exit 0
        assert run_cli(["gegen", "--op", "zonal", "--lambda", "abc"], tmp_path)[0] == 2
        assert "argument --lambda:" in capsys.readouterr().err

    def test_config_file_is_not_read(self, tmp_path, monkeypatch):
        # a CONFEYN_CONFIG naming a missing file once exited 2
        monkeypatch.setenv("CONFEYN_CONFIG", str(tmp_path / "missing.json"))
        assert run_cli(["divisors", "--n", "1", "--k", "0"], tmp_path)[0] == 0


SRC = str(Path(confeyn.__file__).resolve().parent.parent)
HYGIENE_PROBE = ("import sys, confeyn.cli as c; rc = c.main(sys.argv[1:]); "
                 "print(rc, *sorted(m for m in sys.modules if m.startswith('confeyn')))")


def fresh_main(args, tmp_path) -> tuple[int, set[str]]:
    """main(args) in a new interpreter: its exit code and the confeyn modules
    loaded by then."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = ["--out", str(tmp_path / "out.json")] if args else []
    proc = subprocess.run([sys.executable, "-c", HYGIENE_PROBE, *args, *out],
                          capture_output=True, text=True, env=env)
    rc, *modules = proc.stdout.split()
    return int(rc), {m.removeprefix("confeyn.") for m in modules}


class TestImportHygiene:
    """Each subcommand loads only the modules it runs."""

    BASE = {"confeyn", "cli"}
    LOADED = {
        "prop-eval": {"propagators", "specfun", "exact", "linear"},
        "prop-expand": {"amplitude", "specfun", "gegenbauer", "exact", "linear"},
        "gegen": {"gegenbauer", "specfun", "exact", "linear"},
        "graph-coproduct": {"hopf", "linear", "feyngraph"},
        "graph-antipode": {"hopf", "linear", "feyngraph"},
        # the Rota-Baxter layer is rational: no exact ring
        "renorm": {"birkhoff", "hopf", "rotabaxter", "linear", "feyngraph"},
        "beta": {"birkhoff", "hopf", "rotabaxter", "linear", "feyngraph"},
        "divisors": {"rotabaxter", "linear"},
    }

    def test_subcommands(self, tmp_path, graphs_file):
        commands = [
            ["prop-eval", "--D", "3", "--m", "1", "--r", "1"],
            ["prop-expand", "--D", "4", "--method", "gegenbauer", "--ell", "1",
             "--radial", "2"],
            ["gegen", "--op", "monomial", "--m", "2", "--lambda", "1"],
            ["graph-coproduct", "--graphs", graphs_file],
            ["graph-antipode", "--graphs", graphs_file],
            ["renorm", "--target", "logform", "--graphs", graphs_file],
            ["beta", "--target", "logform", "--graphs", graphs_file],
            ["divisors", "--n", "2", "--k", "0"],
        ]
        assert {cmd[0] for cmd in commands} == set(cli.SUBCOMMANDS)
        for cmd in commands:
            assert fresh_main(cmd, tmp_path) == (0, self.BASE | self.LOADED[cmd[0]]), cmd

    def test_usage_and_unknown_subcommand_load_nothing(self, tmp_path):
        assert fresh_main([], tmp_path) == (64, self.BASE)
        assert fresh_main(["frobnicate"], tmp_path) == (64, self.BASE)


NO_MPMATH_PROBE = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
before = set(sys.modules)
from confeyn.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    results.append([rc, buf.getvalue()])
import confeyn.amplitude, confeyn.birkhoff  # and whatever the commands left unloaded
outside = sorted(m for m in set(sys.modules) - before
                 if m.partition(".")[0] not in {"confeyn", *sys.stdlib_module_names})
print(json.dumps({"results": results, "outside": outside}))
"""


class TestWithoutMpmath:
    """The library and every CLI path run on the standard library alone."""

    EXTRA = [["prop-eval", "--D", "4", "--m", "1.3", "--r", "0.7", "--kind", kind]
             for kind in ("gm", "g0", "gm-integral", "gm-complex", "g0-complex", "dirac")]
    EXTRA += [["prop-eval", "--D", "5", "--m", "1.3", "--x", "0.4,-0.2,0.1,0.3,0.5",
               "--kind", "boson", "--alpha", "2", "--mu", "1", "--nu", "3"],
              ["gegen", "--op", "generating", "--n", "9", "--lambda", "3/2", "--x", "0.4"]]

    def test_every_subcommand_and_kind(self, tmp_path):
        suite = golden_suite(tmp_path)
        commands = suite + self.EXTRA
        kinds = {c[c.index("--kind") + 1] for c in commands if "--kind" in c}
        assert kinds == {"gm", "g0", "gm-integral", "gm-complex", "g0-complex",
                         "dirac", "boson"}
        assert {c[0] for c in commands} == set(cli.SUBCOMMANDS)
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", NO_MPMATH_PROBE, json.dumps(commands)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["outside"] == []
        for i, (cmd, (rc, out)) in enumerate(zip(commands, doc["results"])):
            assert rc == 0, cmd
            if i < len(suite):
                assert out.encode() == (GOLDENS / f"{i:02d}_{cmd[0]}.json").read_bytes(), cmd


class TestExceptionScope:
    def test_quadrature_failure_exits_3_in_a_fresh_interpreter(self, tmp_path):
        # propagators is first imported by the handler, inside main
        code, modules = fresh_main(["prop-eval", "--D", "4", "--m", "1", "--r", "1",
                                    "--kind", "gm-integral", "--quad-points", "8"],
                                   tmp_path)
        assert code == 3 and "propagators" in modules

    @pytest.mark.parametrize("error", [RuntimeError, RecursionError])
    def test_other_runtime_errors_propagate(self, error, monkeypatch):
        def fail(args):
            raise error("not a quadrature failure")
        monkeypatch.setattr(cli, "_cmd_divisors", fail)
        with pytest.raises(error):
            main(["divisors", "--n", "2", "--k", "0"])


class TestExitCodesAndGoldens:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 64
        assert main([]) == 64

    def test_byte_identical_outputs(self, tmp_path, graphs_file, phi_file):
        commands = [
            ["prop-eval", "--D", "3", "--m", "1", "--r", "1"],
            ["prop-eval", "--D", "4", "--m", "0.5", "--r", "2", "--kind", "gm-integral"],
            ["prop-expand", "--D", "4", "--method", "gegenbauer", "--ell", "0",
             "--radial", "6"],
            ["gegen", "--op", "product", "--n", "3", "--m", "2", "--lambda", "3/2"],
            ["graph-coproduct", "--graphs", graphs_file],
            ["graph-antipode", "--graphs", graphs_file],
            ["renorm", "--target", "laurent", "--graphs", graphs_file,
             "--phi", phi_file],
            ["renorm", "--target", "logform", "--graphs", graphs_file,
             "--seed", "5"],
            ["beta", "--target", "logform", "--graphs", graphs_file, "--seed", "5"],
            ["divisors", "--n", "3", "--k", "1"],
        ]
        for i, cmd in enumerate(commands):
            a = tmp_path / f"a{i}.json"
            b = tmp_path / f"b{i}.json"
            assert main(cmd + ["--out", str(a)]) == 0
            assert main(cmd + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "confeyn.cli", "gegen", "--op", "monomial",
             "--m", "1", "--lambda", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"1": "1/2"}
