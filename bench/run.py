"""The confeyn benchmark.

usage: python3 bench/run.py --workload {amplitude,renorm,cli,all} --seed N
                            --seconds S --trace {0,1}

Builds nothing: it imports confeyn from ``src/`` of the checkout it sits in,
and exits with code 2 when there is none.  One workload runs in one process
with one thread; the CLI job starts one child process at a time.

The untraced run (``--trace 0``) sets up several times and reports the median
set-up time, then runs whole rounds for ``--seconds`` seconds (at least two
rounds), checks the outputs against independent computations and prints
every end-to-end metric, as it would read on the nominal host: reference work
timed between the operations measures the speed the shared host gives the
run (``jobs.HostMeter``).  The traced run (``--trace 1``) sets up once and
runs one round under the span tracer, then alternately untraced and traced
rounds for the rest of ``--seconds`` to measure the tracing overhead, and
prints every per-layer metric of the set-up and the first round.  The last line of standard output is the result as one JSON object.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
from jobs import SRC, cpu_clock, wall_clock  # noqa: E402

WORKLOADS = {
    # workload -> (its own job, the probe jobs that ride along)
    "amplitude": ("amplitude", ("renorm", "cli")),
    "renorm": ("renorm", ("amplitude", "cli")),
    "cli": ("cli", ("amplitude", "renorm")),
}
SETUP_REPEATS = 5
MIN_ROUNDS = 3
IMPORT_SAMPLES = 5
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "amp_direct_per_s": "1/s",
    "amp_gegen_per_s": "1/s",
    "amp_taylor_per_s": "1/s",
    "prop_kernel_per_s": "1/s",
    "renorm_laurent_s": "s",
    "renorm_logform_s": "s",
    "renorm_beta_frame_s": "s",
    "cli_cmd_p50_ms": "ms",
    "cli_expand_s": "s",
}


def build_jobs(C, workload: str, seed: int, workdir: Path, child_cmd, meters: dict) -> list:
    own, probes = WORKLOADS[workload]
    built = []
    for name in (own,) + probes:
        size = "full" if name == own else "probe"
        if name == "amplitude":
            job = jobs.AmplitudeJob(C, seed, size, meters.get("cpu"))
        elif name == "renorm":
            job = jobs.RenormJob(C, seed, size, meters.get("cpu"))
        else:
            job = jobs.CliJob(seed, size, workdir, child_cmd, meters.get("cpu"),
                              meters.get("child"))
        job.setup()
        built.append(job)
    return built


def plain_child():
    return [sys.executable, "-m", "confeyn.cli"]


def run_round(built: list) -> tuple[list, float]:
    t0 = wall_clock()
    outputs = [job.round() for job in built]
    return outputs, wall_clock() - t0


def check(built: list, rounds: int, consistent: bool) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems).  Every round repeats the same
    operations, so the outputs of the first round are checked and the later
    rounds must reproduce them exactly."""
    import oracles

    problems = [] if consistent else ["outputs differ between rounds"]
    wrong = 0
    for job in built:
        if job.name == "amplitude":
            found, bad = oracles.check_amplitude(job)
            problems += found
            wrong += bad
        elif job.name == "renorm":
            problems += oracles.check_renorm(job)
        else:
            problems += oracles.check_cli(job)
    attempted = rounds * sum(job.ops_per_round() for job in built)
    return not problems, attempted, rounds * wrong, problems


def import_samples(n: int) -> list[float]:
    code = ("import time; t0 = time.perf_counter(); import confeyn.cli; "
            "print(1e3 * (time.perf_counter() - t0))")
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=jobs.child_env(), timeout=60, check=True)
        out.append(float(proc.stdout))
    return out


def timed_setup(workload: str, seed: int, workdir: Path, meters: dict) -> tuple[list, float]:
    t0 = cpu_clock()
    built = build_jobs(jobs.load_confeyn(), workload, seed, workdir, plain_child, meters)
    return built, cpu_clock() - t0


def spare_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time one more set-up and throw it away, leaving the imported modules
    of the measured jobs in place."""
    kept = {k: m for k, m in sys.modules.items() if k == "confeyn" or k.startswith("confeyn.")}
    _, seconds = timed_setup(workload, seed, workdir, {})
    for k in [k for k in sys.modules if k == "confeyn" or k.startswith("confeyn.")]:
        del sys.modules[k]
    sys.modules.update(kept)
    gc.collect()
    return seconds


def untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    t_start = wall_clock()
    meters = {"cpu": jobs.HostMeter(), "child": jobs.HostMeter.children()}
    built, setup_s = timed_setup(workload, seed, workdir, meters)
    setup_times = [setup_s]
    # what set-up made lives for the whole run: keep it out of the collections
    # that the rounds trigger
    gc.freeze()
    first, rounds, consistent = None, 0, True
    while rounds < MIN_ROUNDS or wall_clock() - t_start < seconds:
        outputs, _ = run_round(built)
        if first is None:
            first = outputs
        elif outputs != first:
            consistent = False
        rounds += 1
        # the other set-ups are spread over the run, so that they do not all
        # fall into one stretch of a host that runs faster or slower at times
        if (len(setup_times) < SETUP_REPEATS
                and wall_clock() - t_start >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(spare_setup(workload, seed, workdir))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(spare_setup(workload, seed, workdir))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    correct, attempted, failed, problems = check(built, rounds, consistent)
    # the set-ups are put on the nominal host by the samples of the whole run
    setup_s = statistics.median(setup_times)
    values = {"setup_s": setup_s * meters["cpu"].scale(), "peak_rss_mb": peak_mb}
    measured = {"setup_s": setup_s, "peak_rss_mb": peak_mb}
    for job in built:
        values.update(job.metrics())
        measured.update(job.metrics(nominal=False))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
            "problems": problems, "rounds": rounds,
            "host": {"scales": {k: m.scale() for k, m in meters.items()},
                     "samples": {k: len(m.samples) for k, m in meters.items()},
                     "measured": measured}}


def traced(workload: str, seed: int, seconds: float, workdir: Path, trace_dir: Path) -> dict:
    import tracing

    trace_dir.mkdir(parents=True, exist_ok=True)
    children, spares = [], []

    def traced_child(kept):
        def cmd():
            prefix = trace_dir / f"{'child' if kept is children else 'spare'}{len(kept)}"
            kept.append(prefix)
            return [sys.executable, str(BENCH / "cli_child.py"), str(prefix)]
        return cmd

    def use_child(cmd):
        for job in built:
            if job.name == "cli":
                job.child_cmd = cmd

    t_start = wall_clock()
    C = jobs.load_confeyn()
    tracer = tracing.Tracer()
    tracer.install(C)
    built = build_jobs(C, workload, seed, workdir, traced_child(children), {})
    gc.freeze()
    first, dt = run_round(built)
    tracer.uninstall()
    cache = tracing.gegen_cache_stats(C)
    tracer.dump(trace_dir / "main", {"cache": cache})

    # the later rounds alternate untraced and traced; the traced ones only
    # measure the overhead, against untraced rounds of the same stretch of time
    round_s = {True: [dt], False: []}
    rounds, consistent = 1, True
    while rounds < MIN_ROUNDS or wall_clock() - t_start < seconds:
        is_traced = rounds % 2 == 0
        if is_traced:
            spare = tracing.Tracer()
            spare.install(C)
            use_child(traced_child(spares))
        outputs, dt = run_round(built)
        if is_traced:
            spare.uninstall()
        use_child(plain_child)
        round_s[is_traced].append(dt)
        consistent = consistent and outputs == first
        rounds += 1
    correct, attempted, failed, problems = check(built, rounds, consistent)

    parts = [{"aggregates": tracer.aggregates(), "cache": cache}]
    for prefix in children:
        doc = json.loads(Path(f"{prefix}.json").read_text())
        parts.append({"aggregates": doc["aggregates"], "cache": doc["cache"]})
    values = tracing.layer_values(tracing.merge(parts), import_samples(IMPORT_SAMPLES))
    overhead = statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
    (trace_dir / "index.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "processes": ["main"] + [p.name for p in children],
        "traced_round_s": round_s[True], "untraced_round_s": round_s[False],
        "overhead": overhead, "layers": values}, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, (u, _) in tracing.PER_LAYER.items()},
            "problems": problems, "rounds": rounds, "overhead": overhead}


def run_one(args) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, workdir,
                            OUT / "traces" / tag)
        else:
            result = untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    extra = f", tracing overhead {100 * result['overhead']:.0f}%" if "overhead" in result else ""
    if "host" in result:
        host = result["host"]
        extra += ", host scales " + ", ".join(f"{k} {v:.3f} ({host['samples'][k]} samples)"
                                               for k, v in host["scales"].items())
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed{extra}", file=sys.stderr)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, **line,
                             "host": result.get("host")}) + "\n")
    return line


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE,
                              text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[workload]
        print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:44s} {m['value']:>16.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "confeyn" / "__init__.py").is_file():
        print(f"error: no confeyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
