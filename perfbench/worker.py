"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Run from the checkout root with ``src`` on PYTHONPATH (``run.py`` does
this).  The worker repeats the workload's job list as one closed-loop
client: a job starts when the previous one returns.  It makes
round(seconds / nominal_pass_s) passes, at least one (see Workload).  With
``--trace 1`` as many traced passes alternate with the untraced ones and
give the per-layer metrics, while untraced passes sample the processor
speed (refspeed.py).  Outputs are verified after the last pass, and
every pass must reproduce the first one's outputs exactly, so a traced run
also shows that tracing changes no output.  The last stdout line is a JSON
object.
"""

import time

import coxpizza.cli  # noqa: F401  (set-up ends once the CLI and its kernel are loaded)

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import coxpizza  # noqa: E402
import numpy  # noqa: E402

import gates  # noqa: E402
import layers  # noqa: E402
import refspeed  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    """Peak resident set of this process and of its largest reaped child."""
    return tuple(resource.getrusage(who).ru_maxrss / 1024.0
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _clear_caches() -> None:
    """Drop the package's memo caches so every pass starts as a fresh
    command would, then collect garbage left by the previous pass."""
    for name, module in list(sys.modules.items()):
        if name == "coxpizza" or name.startswith("coxpizza."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def _run_pass(workload, tr):
    """One pass over the job list.  Untraced passes also sample the
    reference speed; the samples' own time is taken out of wall and CPU."""
    outputs, failures = {}, {}
    _clear_caches()
    sampler = refspeed.Sampler()
    with contextlib.nullcontext() if tr.enabled else sampler:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for job in workload.jobs():
            try:
                with tr.span("job:" + job.name):
                    outputs[job.name] = job.run(tr)
            except Exception as exc:  # a raising or refused job is a failed attempt
                failures[job.name] = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    p = {"wall": wall - sampler.spent, "cpu": cpu - sampler.spent, "traced": tr.enabled,
         "outputs": outputs, "failures": failures}
    if not tr.enabled:
        p["slowdown"] = refspeed.slowdown(sampler.samples)
        p["cpu_scaled"] = p["cpu"] / p["slowdown"]
    return p


def _verify(workload, passes, tr):
    """The failed (pass, job) pairs and one line per problem, from the jobs
    that raised, the gates, and the comparison of every pass with pass 1."""
    failed, problems = set(), []

    def fail(idx, job, why):
        failed.add((idx, job))
        problems.append(f"pass {idx} {job}: {why}")

    for idx, p in enumerate(passes, start=1):
        for job, why in p["failures"].items():
            fail(idx, job, why)
    try:
        workload.prepare_checks(tr)
    except Exception as exc:  # without the reference no output can pass
        for idx, p in enumerate(passes, start=1):
            for job in p["outputs"]:
                fail(idx, job, f"reference computation raised {type(exc).__name__}: {exc}")
        return failed, problems
    fingerprints = []
    for idx, p in enumerate(passes, start=1):
        try:
            found = workload.check(p["outputs"])
        except Exception as exc:
            found = {job: [f"gate raised {type(exc).__name__}: {exc}"] for job in p["outputs"]}
        for job in p["outputs"]:
            for why in found.get(job, ["no gate ran"]):
                fail(idx, job, why)
        fingerprints.append({job: workload.fingerprint(job, out)
                             for job, out in p["outputs"].items()})
    for idx, job in gates.repeat_gate(fingerprints):
        fail(idx, job, "output differs from pass 1")
    return failed, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_path):
    workload = WORKLOADS[workload_name](seed, ROOT)
    jobs = len(workload.jobs())
    tracer = Tracer()
    missing_wrappers = []
    passes = []
    count = workload.pass_count(seconds)
    for idx in range(2 * count if trace else count):
        traced = trace and idx % 2 == 1
        if traced:
            missing_wrappers = layers.install(tracer)
        try:
            passes.append(_run_pass(workload, tracer if traced else NullTracer()))
        finally:
            tracer.unwrap_all()
    peak_rss = _peak_rss_mb()
    failed, problems = _verify(workload, passes, tracer if trace else NullTracer())
    result = {
        "threads": workload.threads,
        "kernel": getattr(coxpizza, "KERNEL_IMPLEMENTATION", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "passes": [{k: v for k, v in p.items() if k not in ("outputs", "failures")}
                   for p in passes],
        "peak_rss_mb": max(peak_rss),
        "peak_rss_split_mb": peak_rss,
        "attempted": jobs * len(passes),
        "failed": len(failed),
        "problems": problems,
    }
    if trace:
        values = layers.compute(tracer, [p["wall"] for p in passes if p["traced"]],
                                workload.threads)
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in layers.METRICS}
        result["missing_wrappers"] = missing_wrappers
        if spans_path:
            Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0
    if None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required without --setup-only")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
