"""cvclone benchmark: one workload per fresh process, end to end or traced.

Run from the repository root:

    python3 cvbench/run.py --workload fock_clone --seed 1 --trace 0
    python3 cvbench/run.py --workload all --seed 1

With ``--trace 0`` the run measures set-up in fresh child processes, then
repeats the workload's fixed, seeded job list (at least three passes, more
while they fit in ``--seconds``) and reports the end-to-end metrics. With
``--trace 1`` it runs the list once untraced and once with spans around every
public entry point, and reports the per-layer metrics and the tracing
overhead. Every job's output goes through the gate in ``gate.py``. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. A fuller record (environment, sample counts, failures) is written
under ``.cvbench/`` in the repository root. ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".cvbench"
# Same as jobs.WORKLOADS; repeated so that parsing arguments and capping BLAS
# threads happen before anything imports NumPy.
WORKLOADS = ("fock_clone", "povm_grid", "verify_suite", "gaussian_sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBES = 5
MIN_PASSES = 3
# A run stops starting passes past this many seconds, whatever --seconds
# says, so that a much slower program still ends inside the time limit.
HARD_LIMIT_S = 120.0
PROBE_TIMEOUT_S = 60.0

CHECK_NAMES = ("commutator-algebra", "bch-identity", "unitarity",
               "backend-equivalence", "weyl-covariance", "clone-symmetry",
               "gains-consistency")

# metric name -> (summary table, span or module name, field)
SPAN_METRICS = {
    "fock.apply_network_fock.s": ("names", "fock.apply_network_fock", "s"),
    "fock.apply_network_fock.calls":
        ("names", "fock.apply_network_fock", "calls"),
    "fock.apply_network_fock.states":
        ("names", "fock.apply_network_fock", "work"),
    "fock.expm_apply.s": ("names", "fock.expm_apply", "s"),
    "fock.expm_apply.calls": ("names", "fock.expm_apply", "calls"),
    "fock.reduced_density.s": ("names", "fock.reduced_density", "s"),
    "fock.trace_distance.s": ("names", "fock.trace_distance", "s"),
    "fock.coherent_fock.s": ("names", "fock.coherent_fock", "s"),
    "fock.smeared_mixture.s": ("names", "fock.smeared_mixture", "s"),
    "kernels.displacement_columns_batch.s":
        ("names", "_kernels.displacement_columns_batch", "s"),
    "kernels.displacement_columns_batch.columns":
        ("names", "_kernels.displacement_columns_batch", "work"),
    "kernels.povm_grid_values.s": ("names", "_kernels.povm_grid_values", "s"),
    "kernels.povm_grid_values.points":
        ("names", "_kernels.povm_grid_values", "work"),
    "kernels.smear_accumulate.s": ("names", "_kernels.smear_accumulate", "s"),
    "kernels.smear_accumulate.terms":
        ("names", "_kernels.smear_accumulate", "work"),
    "measurement.povm_density_grid.self_s":
        ("names", "measurement.povm_density_grid", "self_s"),
    "measurement.povm_params.s": ("names", "measurement.povm_params", "s"),
    "measurement.sample_joint_quadratures.s":
        ("names", "measurement.sample_joint_quadratures", "s"),
    "measurement.sigma_variant_report.s":
        ("names", "measurement.sigma_variant_report", "s"),
    "network.run_cloner.self_s": ("names", "network.run_cloner", "self_s"),
    "network.run_cloner.calls": ("names", "network.run_cloner", "calls"),
    "gaussian.s": ("modules", "gaussian", "s"),
    "gaussian.calls": ("modules", "gaussian", "calls"),
    "checks.run_all.s": ("names", "checks.run_all", "s"),
    "cli.main.self_s": ("names", "cli.main", "self_s"),
    "cli.main.calls": ("names", "cli.main", "calls"),
}

# Kernel rows at the shapes of benchmarks/bench_kernels.py (41 x 41 = 1681
# points, d = 24, 8 thermal terms; the mixture takes half the points), so the
# ROADMAP baseline table maps onto benchmark names.
BENCH_SHAPE_ROWS = ("kernels.displacement_columns_batch.bench_ms",
                    "kernels.povm_grid_values.bench_ms",
                    "kernels.smear_accumulate.bench_ms")


def per_layer_units() -> dict:
    units = {}
    for name, (_, _, field) in SPAN_METRICS.items():
        units[name] = "s" if field in ("s", "self_s") else "count"
    units.update({f"checks.{c}.s": "s" for c in CHECK_NAMES})
    units.update({
        "fock.leak_warnings": "count",
        "measurement.squeeze_cache.hit_ratio": "ratio",
        "network.sigma_prep_cache.hit_ratio": "ratio",
        "tracing_overhead_s": "s",
        "trace.spans": "count",
        "warmup.s": "s",
        "warmup.kernels.displacement_columns_batch.s": "s",
    })
    units.update({name: "ms" for name in BENCH_SHAPE_ROWS})
    return units


# ------------------------------------------------------------- environment

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; call before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, to tell program versions apart."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvclone").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, blas: int) -> dict:
    import numpy
    import scipy
    from cvclone import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(getattr(_kernels, "NUMBA_ENABLED", False)),
        "nproc": nproc(),
        "blas_threads": blas,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ passes

def run_pass(job_list, tmpdir, tracer=None) -> dict:
    """Run every job once: program time per job, then the gate, untimed."""
    import gate
    import jobs
    from cvclone.errors import TruncationWarning

    latencies, failures = [], []
    leaks = 0
    check_seconds = dict.fromkeys(CHECK_NAMES, 0.0)
    for index, job in enumerate(job_list):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            if tracer is not None:
                tracer.job, tracer.enabled = index, True
            start = time.perf_counter()
            try:
                output, error = jobs.run_job(job, tmpdir), None
            except Exception as exc:  # counted as a failed job
                output, error = None, exc
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.enabled = False
        leaks += sum(issubclass(w.category, TruncationWarning)
                     for w in caught)
        reason = gate.check(job, output, error)
        if reason is not None:
            failures.append({"job": index, "kind": job.kind,
                             "reason": reason,
                             "known_defect": gate.known_defect(job, reason)})
        if job.kind == "verify" and error is None:
            for result in output:
                if result.name in check_seconds:
                    check_seconds[result.name] += result.seconds
    return {"wall_s": sum(latencies), "latencies": latencies,
            "failures": failures, "leak_warnings": leaks,
            "check_seconds": check_seconds}


def percentile_ms(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values) * 1e3, q))


# ------------------------------------------------------------------ set-up

def probe_setup(args) -> int:
    """Child mode: time import plus warm-up in this fresh process."""
    start = time.perf_counter()
    import jobs
    job_list = jobs.make_jobs(args.workload, args.seed)
    with scratch_dir() as tmpdir:
        jobs.warm_up(args.workload, job_list, args.seed, tmpdir)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(args) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def scratch_dir():
    """A private directory under .cvbench/, removed on exit."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT)


# ---------------------------------------------------------------- reports

def summarize_failures(passes) -> dict:
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "unexpected": [f for f in failures if not f["known_defect"]],
        "by_reason": sorted({(f["kind"], f["reason"] if not f["known_defect"]
                              else f["known_defect"]) for f in failures}),
    }


def emit(args, env, metrics, samples, fails, notes, extra=None) -> None:
    """Print the table and the final JSON line; write the full record."""
    correct = not fails["unexpected"]
    error_rate = fails["failed"] / fails["attempted"]
    print(f"# cvclone benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} jobs failed/attempted="
          f"{fails['failed']}/{fails['attempted']} "
          f"error_rate={error_rate:.4g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"#   {name:<44} {value:>16.6g} {unit:<6} "
              f"n={samples.get(name, 1)}{note}")
    for kind, reason in fails["by_reason"]:
        print(f"# failed {kind}: {reason}")
    print("# environment " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "correct": correct,
              "attempted": fails["attempted"], "failed": fails["failed"],
              "error_rate": error_rate,
              "metrics": {n: {"value": v, "unit": u,
                              "samples": samples.get(n, 1)}
                          for n, (v, u) in metrics.items()},
              "notes": notes, "failures": fails["by_reason"],
              "unexpected_failures": fails["unexpected"][:50], **(extra or {})}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": fails["attempted"],
                      "failed": fails["failed"],
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))


# -------------------------------------------------------------------- runs

def run_end_to_end(args, env) -> None:
    setup_times = measure_setup(args)
    import jobs
    job_list = jobs.make_jobs(args.workload, args.seed)
    passes = []
    with scratch_dir() as tmpdir:
        jobs.warm_up(args.workload, job_list, args.seed, tmpdir)
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(run_pass(job_list, tmpdir))
            now = time.perf_counter()
            projected = now - start + (now - began)
            if len(passes) >= MIN_PASSES and projected > args.seconds:
                break
            if projected > HARD_LIMIT_S:
                break
    latencies = [t for p in passes for t in p["latencies"]]
    fails = summarize_failures(passes)
    # each job's median over the passes, summed over the list: a slow spell
    # of the machine during one pass moves few of the medians
    per_job = zip(*(p["latencies"] for p in passes))
    metrics = {
        "wall_s": (sum(statistics.median(t) for t in per_job), "s"),
        "job_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "job_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    samples = {"wall_s": len(passes), "job_p50_ms": len(latencies),
               "job_p90_ms": len(latencies), "setup_s": len(setup_times)}
    beyond = sum(t * 1e3 > metrics["job_p90_ms"][0] for t in latencies)
    notes = {"job_p90_ms": f"{beyond} jobs beyond it"}
    emit(args, env, metrics, samples, fails, notes,
         {"pass_wall_s": [p["wall_s"] for p in passes],
          "setup_samples_s": setup_times, "jobs_per_pass": len(job_list)})


def bench_shape_rows(repeat: int = 5) -> dict:
    """Kernel timings at the bench_kernels.py shapes, median of ``repeat``."""
    import numpy as np
    from cvclone import _kernels

    dim, grid = 24, 41
    rng = np.random.default_rng(11)
    zs = (rng.normal(size=grid * grid)
          + 1j * rng.normal(size=grid * grid)).astype(np.complex128)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    s_dag = np.linalg.qr(m)[0].conj().T
    weights = 0.5 ** np.arange(1, 9)
    weights /= weights.sum()
    half = zs[: grid * grid // 2]
    disp = _kernels.displacement_columns_batch(half, dim, dim)
    calls = {
        BENCH_SHAPE_ROWS[0]: lambda: _kernels.displacement_columns_batch(
            zs, dim, dim),
        BENCH_SHAPE_ROWS[1]: lambda: _kernels.povm_grid_values(
            zs, s_dag, rho, weights, 0.3),
        BENCH_SHAPE_ROWS[2]: lambda: _kernels.smear_accumulate(
            disp, np.full(disp.shape[0], 1.0 / disp.shape[0]), rho),
    }
    rows = {}
    for name, call in calls.items():
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        rows[name] = statistics.median(times) * 1e3
    return rows


def cache_counts(owner, attr: str):
    cache = getattr(owner, attr, None)
    info = getattr(cache, "cache_info", None)
    return info() if info else None


def hit_ratio(before, after):
    if before is None or after is None:
        return 0.0, "cache not found"
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    if hits + misses == 0:
        return 0.0, "no lookups on this workload"
    return hits / (hits + misses), f"{hits} hits, {misses} misses"


def run_traced(args, env) -> None:
    import jobs
    import tracing
    from cvclone import measurement, network

    job_list = jobs.make_jobs(args.workload, args.seed)
    tracer = tracing.Tracer()
    with scratch_dir() as tmpdir:
        start = time.perf_counter()
        with tracer.install():
            tracer.job, tracer.enabled = -1, True
            jobs.warm_up(args.workload, job_list, args.seed, tmpdir)
            tracer.enabled = False
        warmup_s = time.perf_counter() - start
        untraced = run_pass(job_list, tmpdir)
        squeeze0 = cache_counts(measurement, "_squeeze_dag")
        sigma0 = cache_counts(network, "_sigma_prep_cached")
        with tracer.install():
            traced = run_pass(job_list, tmpdir, tracer)
        squeeze = hit_ratio(squeeze0,
                            cache_counts(measurement, "_squeeze_dag"))
        sigma = hit_ratio(sigma0, cache_counts(network, "_sigma_prep_cached"))
    summary = tracing.summarize(tracer.spans, lambda job: job >= 0)
    warm = tracing.summarize(tracer.spans, lambda job: job < 0)
    units = per_layer_units()
    values, notes = {}, {}
    for name, (table, key, field) in SPAN_METRICS.items():
        row = summary[table].get(key)
        values[name] = float(row[field]) if row else 0.0
        if row is None:
            notes[name] = "not called on this workload"
    for check in CHECK_NAMES:
        values[f"checks.{check}.s"] = traced["check_seconds"][check]
    values["fock.leak_warnings"] = float(traced["leak_warnings"])
    values["measurement.squeeze_cache.hit_ratio"] = squeeze[0]
    notes["measurement.squeeze_cache.hit_ratio"] = squeeze[1]
    values["network.sigma_prep_cache.hit_ratio"] = sigma[0]
    notes["network.sigma_prep_cache.hit_ratio"] = sigma[1]
    values["tracing_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    notes["tracing_overhead_s"] = (f"traced {traced['wall_s']:.4f} s - "
                                   f"untraced {untraced['wall_s']:.4f} s")
    values["trace.spans"] = float(sum(1 for s in tracer.spans if s[2] >= 0))
    values["warmup.s"] = warmup_s
    warm_disp = warm["names"].get("_kernels.displacement_columns_batch")
    values["warmup.kernels.displacement_columns_batch.s"] = (
        warm_disp["s"] if warm_disp else 0.0)
    values.update(bench_shape_rows())
    metrics = {name: (values[name], units[name]) for name in units}
    fails = summarize_failures([untraced, traced])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.dump(str(spans_path), {"environment": env,
                                  "jobs": [j.kind for j in job_list]})
    emit(args, env, metrics, {}, fails, notes,
         {"spans_file": spans_path.name,
          "untraced_wall_s": untraced["wall_s"],
          "traced_wall_s": traced["wall_s"]})


def run_all(args) -> int:
    """Every workload in its own fresh process; one table at the end."""
    rows, code = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
            check=False)
        if proc.returncode != 0:
            print(f"# {workload}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            code = 1
            continue
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rows.append((workload, json.loads(lines[-1])))
    print(f"{'workload':<16} {'metric':<44} {'value':>14} unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:<16} {name:<44} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
        print(f"{workload:<16} {'jobs failed/attempted':<44} "
              f"{result['failed']:>7}/{result['attempted']}"
              f"{'' if result['correct'] else '  UNEXPECTED FAILURES'}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cvclone" / "__init__.py").is_file():
        print(f"cvclone sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    env = environment(args, blas)
    if args.trace:
        run_traced(args, env)
    else:
        run_end_to_end(args, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
