"""boundgen benchmark: one workload per process, inputs from --seed.

    python3 perfbench/run.py --workload ball_large --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the program from
`src/`.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced jobs and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  The line before it is an informational JSON object (per-level
BFS frontier sizes, SHA-256 of each report); run files, spans included,
go to perfbench/_work/.  See perfbench/README.md for the workloads and the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, check_job, import_program

# spans.py imports numpy, so it is imported only after set-up has been timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
SETUP_SAMPLES = 4  # fresh interpreters before the jobs, and as many after

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB", "output_kb": "KB"}
PER_LAYER = {
    "ballsearch.enumerate_s": "s",
    "ballsearch.bfs_s": "s",
    "ballsearch.bfs_levels": "count",
    "ballsearch.frontier_max": "count",
    "ballsearch.bfs_products": "count",
    "ballsearch.fresh_ratio": "ratio",
    "ballsearch.classes_s": "s",
    "ballsearch.closure_s": "s",
    "ballsearch.bfs_calls": "count",
    "ballsearch.alphabet_letters": "count",
    "inequalities.self_s": "s",
    "matrices.self_s": "s",
    "matrices.constructed": "count",
    "matrices.products": "count",
    "matrices.inverses": "count",
    "words.self_s": "s",
    "words.replays": "count",
    "words.replay_letters": "count",
    "ideals.self_s": "s",
    "ideals.cert_factories": "count",
    "hessenberg.self_s": "s",
    "hessenberg.calls": "count",
    "rings.self_s": "s",
    "rings.calls": "count",
    "factorize.self_s": "s",
    "factorize.calls": "count",
    "serialize.self_s": "s",
    "cli.self_s": "s",
    "witness.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "normgen_p50_ms": "ms",
    "normgen_p90_ms": "ms",
    "factor_p50_ms": "ms",
    "factor_p90_ms": "ms",
    "cert_letters": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_program():
    """Import the program from this checkout's src/ (never an installed copy)."""
    if not (SRC / "boundgen" / "__init__.py").is_file():
        raise BenchError(f"no boundgen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    prog = import_program()
    origin = Path(prog.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported boundgen from {origin}, not from {SRC}")
    return prog


def make_workload(name: str, seed: int):
    """Set-up: import the program and build the workload's inputs."""
    WORKDIR.mkdir(exist_ok=True)
    prog = load_program()
    return WORKLOADS[name](prog, seed, WORKDIR)


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters, each importing and building inputs once.

    Half the samples are taken before the jobs and half after, so their
    median reflects the machine over the whole run, not its first second.
    """
    cmd = [sys.executable] + ["-O"] * sys.flags.optimize + [
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-only",
    ]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def summarize(workload, job, traced: bool) -> dict:
    """What the metrics need from a checked job, so its outputs can be dropped."""
    from spans import frontiers

    growth = getattr(workload, "growth", None)
    return {
        "traced": traced,
        "seconds": job.seconds,
        "ops": len(job.ops),
        "failures": check_job(workload, job),
        "latency": {
            kind: [op.seconds for op in job.ops if op.kind == kind] for kind in ("normgen", "factor")
        },
        "output_kb": sum(workload.output_bytes(op) for op in job.ops) / 1024,
        "cert_letters": sum(workload.letters(op) for op in job.ops),
        "report_sha256": workload.digests(job),
        "bfs_frontiers": [frontiers(growth(op)) for op in job.ops[:1]] if growth else [],
    }


def measure(workload, seconds: float, trace_on: bool) -> tuple[list[dict], list[dict]]:
    """Run jobs until the next one would end past `seconds`: at least one job,
    and with tracing at least one untraced and one traced job, alternating.

    Returns a summary per job and, for traced jobs, the per-layer metrics.
    """
    from spans import Tracer, frontiers, layer_metrics

    tracer = Tracer() if trace_on else None
    jobs, layer_rows, walls = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        traced = trace_on and len(jobs) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                job = workload.job()
            finally:
                tracer.uninstall()
            layer_rows.append(layer_metrics(tracer))
        else:
            job = workload.job()
        jobs.append(summarize(workload, job, traced))
        if traced and len(layer_rows) == 1:
            tracer.save(WORKDIR / f"spans-{workload.name}.npz")
            jobs[-1]["bfs_frontiers"] = [frontiers(g) for g, _ in tracer.bfs]
        del job
        walls.append(perf_counter() - t0)
        if trace_on and not layer_rows:
            continue
        if perf_counter() - start + statistics.median(walls) > seconds:
            break
    return jobs, layer_rows


def end_to_end(setup: list[float], jobs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(j["seconds"] for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_kb": statistics.median(j["output_kb"] for j in jobs),
    }


def percentile_ms(seconds: list[float], pct: int) -> float:
    """The pct-th percentile in ms (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(seconds, n=100)[pct - 1] * 1e3


def per_layer(jobs: list[dict], layer_rows: list[dict]) -> dict[str, float]:
    plain = [j for j in jobs if not j["traced"]]
    out = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    out["trace.overhead_ratio"] = statistics.median(
        j["seconds"] for j in jobs if j["traced"]
    ) / statistics.median(j["seconds"] for j in plain)
    for kind in ("normgen", "factor"):
        lat = [x for j in plain for x in j["latency"][kind]]
        out[f"{kind}_p50_ms"] = percentile_ms(lat, 50) if len(lat) > 1 else 0.0
        out[f"{kind}_p90_ms"] = percentile_ms(lat, 90) if len(lat) > 1 else 0.0
    out["cert_letters"] = plain[0]["cert_letters"]
    return {name: out[name] for name in PER_LAYER}


def check_names(metrics: dict, trace_on: bool) -> None:
    """The printed metric names must be exactly BENCHMARK.json's list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace_on else "end_to_end"]]
    if sorted(want) != sorted(metrics):
        raise BenchError(f"metric names {sorted(metrics)} differ from BENCHMARK.json {sorted(want)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            t0 = perf_counter()
            make_workload(args.workload, args.seed)
            print(perf_counter() - t0)
            return 0
        trace_on = bool(args.trace)
        setup = [] if trace_on else setup_seconds(args)
        workload = make_workload(args.workload, args.seed)
        jobs, layer_rows = measure(workload, args.seconds, trace_on)
        if trace_on:
            metrics = per_layer(jobs, layer_rows)
        else:
            setup += setup_seconds(args)
            metrics = end_to_end(setup, jobs)
        check_names(metrics, trace_on)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failures = [f for j in jobs for f in j["failures"]]
    traced_first = next((j for j in jobs if j["traced"]), jobs[0])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "job_seconds": [j["seconds"] for j in jobs],
        "traced_jobs": sum(j["traced"] for j in jobs),
        "setup_seconds": setup,
        "bfs_frontiers": traced_first["bfs_frontiers"],
        "report_sha256": jobs[0]["report_sha256"],
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": sum(j["ops"] for j in jobs),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": (PER_LAYER if trace_on else END_TO_END)[name]}
            for name, value in metrics.items()
        },
    }
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2)
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
