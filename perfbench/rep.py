"""One cold repetition of a benchmark workload, in a fresh interpreter.

Usage (``run.py`` starts it; the job file is written by ``run.py``)::

    python3 perfbench/rep.py JOB.json RESULT.json

A fresh process per repetition keeps every run cold: in-process memos (for
example ``suite_nnz``) and the report cache start empty each time. The
repetition imports ``repro`` and builds a :class:`Session` (timed as
set-up), then runs the workload's experiment drivers in order through that
Session, as ``smash-repro run`` does, and closes it (timed as ``wall_s``).
Correctness checks, job keys and the model error are computed after the
timed phase.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent


def _speedup_pairs(driver: str, result: dict):
    """``(label, repro, paper)`` for every speedup the driver puts beside
    its own ``paper_reference`` values. Drivers whose reference is only a
    note (``spadd``, ``scale``) yield nothing."""
    reference = result.get("paper_reference", {})
    if driver in ("figure10", "figure12"):
        for scheme, paper in reference["average_speedup"].items():
            yield f"{driver}.average_speedup.{scheme}", result["average"]["speedup"][scheme], paper
    elif driver == "figure3":
        for kernel, values in reference.items():
            yield (
                f"figure3.{kernel}.ideal_speedup",
                result["results"][kernel]["ideal_speedup"],
                values["ideal_speedup"],
            )


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def main(argv) -> int:
    job = json.loads(pathlib.Path(argv[1]).read_text(encoding="utf-8"))
    out_path = pathlib.Path(argv[2])

    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    from repro.api import RuntimeConfig, Session
    from repro.api.config import DEFAULT_REPLAY_BACKEND
    from repro.eval.figures import get_experiment
    from repro.sim.trace import DEFAULT_CHUNK_ACCESSES

    class RecordingSession(Session):
        """Remembers every sweep's specs and reports, grouped by driver."""

        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            self.driver = ""
            self.records: list = []

        def sweep(self, specs, sim=None):
            result = super().sweep(specs, sim)
            self.records.append((self.driver, sim if sim is not None else self.sim, result))
            return result

    # Built explicitly, never from the environment: no SMASH_REPRO_* variable
    # can change what is measured. Every knob but the worker count and the
    # cache location stays at its library default.
    runtime = RuntimeConfig(
        processes=job["processes"],
        cache_dir=job["cache_dir"],
        trace_chunk=DEFAULT_CHUNK_ACCESSES,
        replay_backend=DEFAULT_REPLAY_BACKEND,
        replay_batch=1,
        replay_profile=False,
        pool_chunk=0,
        pool_warmup=True,
        store_ingest=True,
        store_index=None,
    )
    session = RecordingSession(runtime=runtime)
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s}
    if job["setup_only"]:
        session.close()
        out_path.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(HERE))
        from layers import Tracer, install, summarize

        tracer = Tracer()
        install(tracer)

    outputs, errors, driver_s = {}, [], {}
    start = time.perf_counter()
    for driver in job["drivers"]:
        session.driver = driver
        driver_start = time.perf_counter()
        try:
            outputs[driver] = get_experiment(driver).driver(session=session)
        except Exception:  # noqa: BLE001 - a failed driver counts its jobs as failed
            errors.append(f"{driver}: {traceback.format_exc()}")
        driver_s[driver] = time.perf_counter() - driver_start
    session.close()
    wall_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()

    from repro.eval.runner import job_key
    from repro.sim._replay_core import effective_backend

    jobs = {driver: [] for driver in job["drivers"]}
    executed_keys = {}
    for driver, sim, sweep in session.records:
        for spec, report in sweep:
            label = f"{spec.kernel}/{spec.scheme}/" + ":".join(map(str, spec.workload))
            jobs[driver].append(
                [label, report.cycles, report.total_instructions, report.dram_accesses]
            )
            key = job_key(spec.to_job(sim=sim, smash=session.smash))
            executed_keys.setdefault(key, report.total_instructions)

    stats = session.stats
    model_terms = [
        (label, repro_value, paper, abs(repro_value / paper - 1.0))
        for driver, output in outputs.items()
        for label, repro_value, paper in _speedup_pairs(driver, output)
    ]
    result.update(
        {
            "wall_s": wall_s,
            "driver_s": driver_s,
            "peak_rss_mb": peak_rss_mb,
            "jobs": jobs,
            "errors": errors,
            "submitted": stats.submitted,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "distinct_jobs": len(executed_keys),
            # The cache starts empty, so each distinct job executes once.
            "executed_instructions": sum(executed_keys.values()),
            "model_terms": model_terms,
            "runtime": {
                key: value
                for key, value in dataclasses.asdict(runtime).items()
                if key not in ("cache_dir", "service_host", "service_port")
            },
            "effective_replay_backend": effective_backend(runtime.replay_backend),
        }
    )
    if tracer is not None:
        result["layers"] = summarize(tracer.spans)
        tracer.dump(out_path.with_suffix(".spans.json"))
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
