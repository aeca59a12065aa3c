"""Benchmark of the SMASH reproduction: cold figure sweeps, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernel_sweep --seed 1 --seconds 58 --trace 0

Each workload runs a fixed list of the paper's experiment drivers through one
``repro.api.Session``, as ``smash-repro run`` does, into a fresh, empty
report cache with result-store ingest on. Every repetition is a fresh
interpreter (``rep.py``), so every repetition is cold. Repetitions continue
while another one fits in ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced repetitions and reports per-layer metrics
from the traced ones (spans recorded by ``layers.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted`` (jobs
submitted), ``failed`` (jobs that raised or whose modelled cycles,
instructions or DRAM accesses differ from ``reference.json``) and
``metrics``. Human-readable lines and a details file under
``.perfbench-out/`` come before it.

Inputs: the drivers fix every matrix's generator seed from its id
(``repro.workloads.suite`` seeds each suite matrix per key), so the default
run is the paper reproduction. ``--seed`` is recorded but selects no input:
every seed runs the same jobs, and the benchmark never patches the
generators. ``--write-reference`` re-records ``reference.json`` from one
repetition of the given workload's drivers.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
CATALOGUE = ROOT / "BENCHMARK.json"

KERNEL_DRIVERS = ("figure12", "spadd", "figure3")

#: Driver lists and worker counts. ``spmv_scale`` adds ``figure10`` to the
#: ``scale`` sweep because ``scale`` has no numeric paper reference and
#: every end-to-end metric, ``model_err_pct`` included, is reported on
#: every workload; ``figure10`` is the paper's SpMV figure, so the workload
#: stays SpMV-only and generation-bound. ``pool_sweep`` runs the
#: ``kernel_sweep`` jobs on the worker pool, so only dispatch differs; it is
#: not in BENCHMARK.json because its wall time on a shared 2-core host
#: spread too widely between runs, but it can be run by name.
WORKLOADS = {
    "kernel_sweep": {"drivers": KERNEL_DRIVERS, "processes": 1},
    "spmv_scale": {"drivers": ("scale", "figure10"), "processes": 1},
    "pool_sweep": {"drivers": KERNEL_DRIVERS, "processes": 2},
}

#: The layer each workload's traced run is predicted to be dominated by.
PREDICTED_DOMINANT = {
    "kernel_sweep": "kernels.spmm",
    "spmv_scale": "workloads",
    "pool_sweep": "eval.other",
}

#: Set-up-only interpreters started at the beginning of a ``--trace 0``
#: run; one more runs before each repetition, and each repetition times its
#: own set-up too, so ``setup_s`` is a median of samples spread over the run.
SETUP_PROBES = 5

#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

SELF_TIME_METRICS = {
    "workloads.self_s": "workloads",
    "core.self_s": "core",
    "formats.self_s": "formats",
    "kernels.spmv_s": "kernels.spmv",
    "kernels.spmm_s": "kernels.spmm",
    "kernels.spadd_s": "kernels.spadd",
    "sim.replay_s": "sim.replay",
    "sim.report_s": "sim.report",
    "eval.cache_load_s": "eval.cache_load",
    "eval.cache_store_s": "eval.cache_store",
    "store.ingest_s": "store.ingest",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    """The repetitions' environment: no SMASH_REPRO_* knob, no inherited
    PYTHONPATH, and a fixed string-hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMASH_REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_rep(out_dir: pathlib.Path, name: str, job: dict, deadline: float) -> dict:
    """Run ``rep.py`` for ``job`` in a fresh interpreter and return its result."""
    job_path = out_dir / f"{name}.job.json"
    result_path = out_dir / f"{name}.json"
    cache_dir = out_dir / f"{name}.cache"
    job = dict(job, src=str(SRC), cache_dir=str(cache_dir))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(job_path), str(result_path)],
        cwd=out_dir,
        env=_env(),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        # Time limit, SIGTERM or Ctrl-C: stop the repetition and its pool.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"repetition {name} ran past the time limit") from None
        raise
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if code != 0:
        raise BenchError(f"repetition {name} exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check_rep(rep: dict, reference: dict, drivers) -> tuple:
    """``(attempted, failed, problems)`` of one repetition against the reference."""
    attempted = failed = 0
    problems = list(rep["errors"])
    for driver in drivers:
        got, want = rep["jobs"][driver], reference.get(driver, [])
        n = max(len(got), len(want))
        attempted += n
        mismatched = sum(
            1 for i in range(n) if i >= len(got) or i >= len(want) or got[i] != want[i]
        )
        failed += mismatched
        if mismatched:
            problems.append(f"{driver}: {mismatched} of {n} jobs differ from the reference")
    recorded = sum(len(rep["jobs"][driver]) for driver in drivers)
    if rep["submitted"] != recorded:
        problems.append(f"{rep['submitted']} jobs submitted but {recorded} reports returned")
    if rep["executed"] != rep["distinct_jobs"]:
        problems.append(
            f"{rep['executed']} jobs executed for {rep['distinct_jobs']} distinct jobs "
            "into an empty cache"
        )
    layers = rep.get("layers")
    if layers is not None:
        if abs(layers["self_total_s"] - layers["roots_s"]) > 1e-6:
            problems.append(
                f"layer self times sum to {layers['self_total_s']:.6f}s but their "
                f"outermost spans cover {layers['roots_s']:.6f}s"
            )
        if layers["self_total_s"] > rep["wall_s"]:
            problems.append(
                f"layer self times ({layers['self_total_s']:.3f}s) exceed wall_s "
                f"({rep['wall_s']:.3f}s)"
            )
    return attempted, failed, problems


def _layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition (``trace_overhead_s`` aside)."""
    layers = rep["layers"]
    self_s, calls, units = layers["self_s"], layers["calls"], layers["units"]
    replay_s = self_s["sim.replay"]
    accesses = units["sim.replay"]
    values = {metric: self_s[layer] for metric, layer in SELF_TIME_METRICS.items()}
    values.update(
        {
            "workloads.calls": calls["workloads"],
            "core.calls": calls["core"],
            "kernels.calls": sum(calls[f"kernels.{k}"] for k in ("spmv", "spmm", "spadd")),
            "sim.replay_calls": calls["sim.replay"],
            "sim.replay_accesses": accesses,
            "sim.replay_maccesses_per_s": accesses / replay_s / 1e6 if replay_s else 0.0,
            "eval.cache_hits": rep["cache_hits"],
            "eval.jobs_executed": rep["executed"],
            "eval.other_s": rep["wall_s"] - layers["self_total_s"],
        }
    )
    return values


def _median_metrics(samples: list) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def _host(rep: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "replay_backend": rep["effective_replay_backend"],
    }


def _config_id(workload: str, rep: dict) -> str:
    definition = {
        "workload": dict(WORKLOADS[workload], name=workload, cache="fresh empty directory"),
        "runtime": rep["runtime"],
    }
    blob = json.dumps(definition, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(args) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    definition = WORKLOADS[args.workload]
    deadline = time.monotonic() + HARD_LIMIT_S
    reference = {} if args.write_reference else json.loads(REFERENCE.read_text("utf-8"))
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    job = {
        "drivers": list(definition["drivers"]),
        "processes": definition["processes"],
        "setup_only": False,
        "trace": False,
    }
    setups = []

    def probe_setup() -> None:
        probe = _run_rep(out_dir, f"setup{len(setups)}", dict(job, setup_only=True), deadline)
        setups.append(probe["setup_s"])

    # One unit is a set-up probe and a repetition, or with --trace 1 an
    # untraced and a traced repetition. A unit starts only while a quarter
    # more than the slowest one so far still fits in the budget.
    untraced, traced = [], []
    start = time.monotonic()
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe_setup()
    slowest = 0.0
    while True:
        unit_start = time.monotonic()
        if args.trace:
            untraced.append(_run_rep(out_dir, f"rep{len(untraced)}", job, deadline))
            traced.append(_run_rep(out_dir, f"traced{len(traced)}", dict(job, trace=True), deadline))
        else:
            probe_setup()
            untraced.append(_run_rep(out_dir, f"rep{len(untraced)}", job, deadline))
        slowest = max(slowest, time.monotonic() - unit_start)
        if args.write_reference or time.monotonic() - start + 1.25 * slowest > args.seconds:
            break

    reps = untraced + traced
    if args.write_reference:
        recorded = json.loads(REFERENCE.read_text("utf-8")) if REFERENCE.is_file() else {}
        recorded.update(reps[0]["jobs"])
        REFERENCE.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", "utf-8")
        reference = recorded

    attempted = failed = 0
    problems = []
    for rep in reps:
        rep_attempted, rep_failed, rep_problems = _check_rep(rep, reference, definition["drivers"])
        attempted += rep_attempted
        failed += rep_failed
        problems += rep_problems
    model_terms = reps[0]["model_terms"]
    if any(rep["model_terms"] != model_terms for rep in reps):
        problems.append("the modelled speedups differ between repetitions")
    if not model_terms:
        problems.append("no driver reported a speedup beside a paper reference")

    walls = [rep["wall_s"] for rep in untraced]
    if args.trace:
        metrics = _median_metrics([_layer_metrics(rep) for rep in traced])
        metrics["trace_overhead_s"] = (
            statistics.median(rep["wall_s"] for rep in traced) - statistics.median(walls)
        )
    else:
        setups += [rep["setup_s"] for rep in untraced]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "sim_minstr_per_s": statistics.median(
                rep["executed_instructions"] / rep["wall_s"] / 1e6 for rep in untraced
            ),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
            "model_err_pct": 100.0 * statistics.fmean(t[3] for t in model_terms)
            if model_terms
            else 0.0,
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config_id": _config_id(args.workload, reps[0]),
        "definition": WORKLOADS[args.workload],
        "runtime": reps[0]["runtime"],
        "host": _host(reps[0]),
        "wall_samples_s": walls,
        "setup_samples_s": setups,
        "model_terms": model_terms,
        "problems": problems,
        "repetitions": [{k: v for k, v in rep.items() if k != "jobs"} for rep in reps],
    }
    (out_dir / "details.json").write_text(json.dumps(details, indent=1), encoding="utf-8")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(CATALOGUE.read_text("utf-8"))[section]}
    if set(units) != set(metrics):
        raise BenchError(f"computed metrics {sorted(metrics)} differ from {section} in BENCHMARK.json")
    _print_summary(args, details, metrics, units)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _print_summary(args, details: dict, metrics: dict, units: dict) -> None:
    print(f"workload {args.workload}: drivers {', '.join(details['definition']['drivers'])}, "
          f"processes={details['definition']['processes']}, cold cache, store ingest on")
    print(f"config_id {details['config_id']}")
    print(f"runtime {json.dumps(details['runtime'], sort_keys=True)}")
    print(f"host {json.dumps(details['host'], sort_keys=True)}")
    print(f"seed {args.seed}: recorded only; the drivers fix every matrix's seed per "
          "matrix id, so this is the paper reproduction")
    walls = details["wall_samples_s"]
    print(f"{'untraced ' if args.trace else ''}wall_s samples n={len(walls)}: "
          + ", ".join(f"{w:.3f}" for w in walls)
          + " (median reported; no tail percentile: one needs at least 11 samples)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"model_err_pct is validated only against the drivers' own paper_reference "
              f"speedups ({len(details['model_terms'])} terms):")
        for label, repro_value, paper, _ in details["model_terms"]:
            print(f"    {label:40s} repro {repro_value:8.4f}  paper {paper:6.2f}")
    else:
        times = {layer: metrics[name] for name, layer in SELF_TIME_METRICS.items()}
        times["eval.other"] = metrics["eval.other_s"]
        dominant = max(times, key=times.__getitem__)
        print(f"dominant layer {dominant} (predicted {PREDICTED_DOMINANT[args.workload]})")
    for problem in details["problems"]:
        print(f"PROBLEM: {problem}")


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="re-record reference.json from one repetition instead of checking it",
    )
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
