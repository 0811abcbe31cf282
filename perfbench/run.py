"""coxpizza benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is measured first (see
_setup_seconds), then one fresh worker process runs the workload (see
worker.py).
The run's record, with its metadata, goes to .perfbench-runs/; compare two
sets of records with compare.py.  The last stdout line is the result object;
the exit code is 0 only if every output passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench-runs"
SETUP_PAIRS = 12
SETUP_TIMEOUT_S = 60.0
# Median time from spawning a fresh interpreter to the end of ``import
# numpy`` on the 2-core x86-64 virtual machine the benchmark was tuned on.
# It only sets the scale: setup_s reads as seconds on that machine.
NOMINAL_BASELINE_S = 0.155
BASELINE_CODE = ("import time\nimport numpy\nready = time.monotonic()\n"
                 "import json\nprint(json.dumps({'ready': ready}))")
# A worker is killed after this many times its planned pass time, plus the
# margin (start-up, the gates' reference results), so that a much slower
# commit is still measured.
WORKER_TIMEOUT_FACTOR = 3.0
WORKER_TIMEOUT_MARGIN_S = 60.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    # The package makes only small level-1 BLAS calls; one BLAS thread keeps
    # idle BLAS threads out of the CPU times and of the thread budget.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _spawn(args: list, timeout: float):
    """(monotonic time at spawn, last stdout line as JSON) of a Python run
    with ``args``.  It gets its own process group, so a timeout also kills
    the pool processes a worker started."""
    cmd = [sys.executable] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def _setup_seconds():
    """(setup_s, probe samples, baseline samples).  SETUP_PAIRS times, a
    fresh interpreter that only imports numpy (the baseline) is spawned,
    then one that imports ``coxpizza.cli``, which selects the kernel (the
    probe); a sample is the time from spawn to the end of the import.  The
    machine's speed drifts by up to 50% from minute to minute, and the
    baseline, the same kind of work (interpreter start-up, imports,
    extension modules), drifts with it while the package cannot change it:
    setup_s is median(probes) / median(baselines) * NOMINAL_BASELINE_S."""
    probes, baselines = [], []
    for _ in range(SETUP_PAIRS):
        spawned, out = _spawn(["-c", BASELINE_CODE], SETUP_TIMEOUT_S)
        baselines.append(out["ready"] - spawned)
        spawned, out = _spawn([str(HERE / "worker.py"), "--setup-only"], SETUP_TIMEOUT_S)
        probes.append(out["ready"] - spawned)
    value = statistics.median(probes) / statistics.median(baselines) * NOMINAL_BASELINE_S
    return value, probes, baselines


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    head = ROOT / ".git"
    if not head.exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coxpizza benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coxpizza" / "__init__.py").is_file():
        return _fail(f"no coxpizza sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "tests" / "golden").is_dir():
        return _fail(f"no golden reports under {ROOT / 'tests' / 'golden'}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # needs the package, found only now

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    planned_s = workload.pass_count(args.seconds) * workload.nominal_pass_s * (1 + args.trace)
    timeout = WORKER_TIMEOUT_FACTOR * planned_s + WORKER_TIMEOUT_MARGIN_S
    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_s, setup_probes, setup_baselines = _setup_seconds()
        worker_args = [str(HERE / "worker.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans", str(RUNS_DIR / f"{stem}.spans.json")]
        _, result = _spawn(worker_args, timeout)
    except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    plain = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall"] for p in plain]
    raw = {"wall_s": statistics.median(walls),
           "cpu_unscaled_s": statistics.median(p["cpu"] for p in plain),
           "setup_unscaled_s": statistics.median(setup_probes)}
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_scaled"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "kernel": result["kernel"],
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "threads": result["threads"],
        "passes": len(result["passes"]),
        "passes_wall_cpu_slowdown": [[p["wall"], p["cpu"], p["slowdown"]] for p in plain],
        "peak_rss_worker_children_mb": result["peak_rss_split_mb"],
        "setup_probe_s": setup_probes,
        "setup_baseline_s": setup_baselines,
    }
    record = {"meta": meta, "metrics": metrics, "unscaled": raw, "attempted": attempted,
              "failed": failed, "problems": result["problems"],
              "missing_wrappers": result.get("missing_wrappers", [])}
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))

    for problem in result["problems"]:
        print(f"FAIL {problem}")
    for name in result.get("missing_wrappers", []):
        print(f"note: {name} not found, its layer is not traced")
    print("meta " + json.dumps(meta))
    for name, value in raw.items():
        print(f"{args.workload:<12} {name:<34} {value:.6g} s (unscaled, not gated)")
    for name, m in metrics.items():
        print(f"{args.workload:<12} {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<12} {'fail_frac':<34} {failed / attempted:.6g} ratio"
          f" ({failed}/{attempted} jobs)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
