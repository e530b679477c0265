"""Tests of the benchmark itself: every correctness check rejects a
deliberately perturbed output, the workload seed is an argument, and the
benchmark refuses to run without the confeyn sources.

Run with ``python3 -m pytest bench/tests -q`` from the root of the repository.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import oracles  # noqa: E402


@pytest.fixture(scope="module")
def C():
    return jobs.load_confeyn()


@pytest.fixture(scope="module")
def amplitude(C):
    job = jobs.AmplitudeJob(C, 0, "full")
    job.setup()
    job.round()
    return job


@pytest.fixture(scope="module")
def renorm(C):
    job = jobs.RenormJob(C, 0, "probe")
    job.setup()
    job.round()
    return job


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    job = jobs.CliJob(0, "full", tmp_path_factory.mktemp("cli"),
                      lambda: [sys.executable, "-m", "confeyn.cli"])
    job.setup()
    job.round()
    return job


def test_amplitude_outputs_pass_and_only_the_defect_slice_fails(amplitude):
    problems, wrong = oracles.check_amplitude(amplitude)
    assert problems == []
    assert wrong == len(jobs.DEFECT_SLICE)


@pytest.mark.parametrize("method", ["direct", "gegenbauer", "taylor", "dirac", "boson"])
def test_amplitude_check_rejects_one_changed_value(amplitude, method):
    job = copy.copy(amplitude)
    job.outputs = copy.deepcopy(amplitude.outputs)
    out = next(o for o in job.outputs
               if o["spec"]["method"] == method and o["spec"]["kind"] != "defect")
    if method in ("gegenbauer", "taylor"):
        tol = oracles.amplitude_tolerance(out["spec"], method, job.inputs["radial"],
                                          job.inputs["ell_max"])
        out["value"] *= 1 + 3 * tol
    elif method == "dirac":
        out["value"]["a"] *= 1 + 1e-7
    else:
        out["value"] *= 1 + 1e-7
    problems, _ = oracles.check_amplitude(job)
    assert len(problems) == 1 and method in problems[0]


def test_renorm_properties_hold(renorm):
    assert oracles.check_renorm(renorm) == []


def test_renorm_check_rejects_a_broken_birkhoff_value(renorm, C):
    job = copy.copy(renorm)
    job.outputs = dict(renorm.outputs)
    laurent = list(job.outputs["laurent"])
    minus, plus = laurent[0]
    laurent[0] = (minus, plus + C.rotabaxter.LaurentSeries({-1: Fraction(1, 3)}))
    job.outputs["laurent"] = laurent
    problems = oracles.check_renorm(job)
    assert any("pole" in p for p in problems)


def test_renorm_check_rejects_a_wrong_frame_value(renorm, C):
    job = copy.copy(renorm)
    job.outputs = dict(renorm.outputs)
    framed = list(job.outputs["beta_frame"])
    beta, frame = framed[0]
    framed[0] = (beta, frame + C.rotabaxter.LaurentSeries({0: Fraction(1)}))
    job.outputs["beta_frame"] = framed
    assert any("frame" in p for p in oracles.check_renorm(job))


def test_admissible_count_matches_the_program(C):
    for name, g in jobs.make_renorm_inputs(C, 3, "probe"):
        assert oracles.admissible_count(g.to_json()) == len(g.admissible_subgraphs()), name


def test_cli_outputs_pass(cli):
    assert oracles.check_cli(cli) == []


def test_cli_check_rejects_one_changed_tensor_coefficient(cli):
    job = copy.copy(cli)
    job.outputs = copy.deepcopy(cli.outputs)
    out = next(o for o in job.outputs if o["argv"][0] == "prop-expand")
    doc = json.loads(out["stdout"])
    value = doc["expansion"]["plain"][3]["coeff"][0]["value"][0]
    value["rational"] = str(Fraction(value["rational"]) + Fraction(1, 7))
    out["stdout"] = json.dumps(doc)
    problems = oracles.check_cli(job)
    assert len(problems) == 1 and "prop-expand" in problems[0]


def test_cli_check_rejects_one_changed_propagator_value(cli):
    job = copy.copy(cli)
    job.outputs = copy.deepcopy(cli.outputs)
    out = next(o for o in job.outputs if o["argv"][:1] == ["prop-eval"]
               and o["argv"][-1] == "gm")
    doc = json.loads(out["stdout"])
    doc["value"] *= 1 + 1e-7
    out["stdout"] = json.dumps(doc)
    assert len(oracles.check_cli(job)) == 1


def test_cli_check_rejects_a_failed_command(cli):
    job = copy.copy(cli)
    job.outputs = copy.deepcopy(cli.outputs)
    job.outputs[0]["rc"] = 2
    assert len(oracles.check_cli(job)) == 1


def test_the_seed_is_an_argument(C):
    a = jobs.make_amplitude_inputs(1, "probe")
    b = jobs.make_amplitude_inputs(2, "probe")
    assert a == jobs.make_amplitude_inputs(1, "probe")
    assert a["cases"] != b["cases"]
    docs = lambda seed: [g.to_json() for _, g in jobs.make_renorm_inputs(C, seed, "full")]  # noqa
    assert docs(1) == docs(1) != docs(2)


def test_host_meter_scales_by_the_samples_of_a_span():
    samples = iter([0.004, 0.002, 0.001])
    meter = jobs.HostMeter(sample=lambda: next(samples), nominal_s=0.002, every_s=0.0)
    meter.mark()
    start = meter.mark()
    meter.poll()
    assert meter.scale(start) == pytest.approx(0.002 / 0.0015)
    assert meter.scale() == pytest.approx(1.0)
    off = jobs.HostMeter(every_s=None)
    off.mark()
    off.poll()
    assert off.samples == [] and off.scale() == 1.0


def test_a_slow_host_reads_as_the_nominal_host(C):
    meter = jobs.HostMeter(sample=lambda: 2 * jobs.REF_SLICE_NOMINAL_S)
    job = jobs.AmplitudeJob(C, 0, "probe", meter)
    job.setup()
    job.round()
    nominal, measured = job.metrics(), job.metrics(nominal=False)
    assert meter.samples
    for name, rate in nominal.items():
        assert rate == pytest.approx(2 * measured[name]), name


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_a_second_seed_runs_clean():
    proc = _run(ROOT, "--workload", "renorm", "--seed", "2", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "amplitude", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
