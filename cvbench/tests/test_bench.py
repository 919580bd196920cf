"""Tests of the benchmark itself: output contract, gate, job lists, tracer."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import jobs
import tracing
from cvclone import fock, gaussian, network
from cvclone.checks import CheckResult
from cvclone.errors import InvalidArgumentError

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in expected)


def test_workload_names_match_the_spec():
    import run
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(jobs.WORKLOADS) == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "cvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fock_clone", 0, cwd=tmp_path,
                script=tmp_path / "cvbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------------- jobs

def test_job_lists_are_seeded_and_stratified():
    for workload in jobs.WORKLOADS:
        a = jobs.make_jobs(workload, 5)
        b = jobs.make_jobs(workload, 5)
        c = jobs.make_jobs(workload, 6)
        assert [(j.kind, repr(j.params)) for j in a] == \
            [(j.kind, repr(j.params)) for j in b]
        assert [repr(j.params) for j in a] != [repr(j.params) for j in c]
        assert sorted(j.kind for j in a) == sorted(j.kind for j in c)
        assert sum(j.known_defect is not None for j in a) == \
            sum(j.known_defect is not None for j in c)


def test_fock_jobs_cover_every_truncation():
    found = {j.params["d"] for j in jobs.make_jobs("fock_clone", 1)
             if j.kind == "fock_merged"}
    assert found == set(jobs.FOCK_TRUNCATIONS)


# ------------------------------------------------------------------- gate

def _first(workload, kind, defect=False):
    for job in jobs.make_jobs(workload, 7):
        if job.kind == kind and (job.known_defect is not None) == defect:
            return job
    raise AssertionError(f"no {kind} job")


def _mixed_with_vacuum(rho: fock.DensityMatrix, share=0.2):
    vac = np.zeros_like(rho.matrix)
    vac[0, 0] = 1.0
    return fock.DensityMatrix((1 - share) * rho.matrix + share * vac)


def _perturbed(job, out):
    """A plausible but wrong output for each job kind."""
    kind = job.kind
    if kind in ("fock_merged", "fock_literal"):
        clone_c = _mixed_with_vacuum(out.clone_c)
        return dataclasses.replace(out, clone_c=clone_c)
    if kind == "sigma_report":
        angle, report = out
        return angle, {**report,
                       "clone_trace_distance":
                           report["clone_trace_distance"] + 2e-3}
    if kind == "povm_density":
        xs, vals = out
        return xs, vals * (1.0 + 1e-5)
    if kind == "mixture":
        return _mixed_with_vacuum(out)
    if kind == "verify":
        return [dataclasses.replace(out[0], status="fail")] + out[1:]
    if kind == "cli_sweep":
        code, text, err = out
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[4] = f"{float(cells[4]) * (1 + 1e-9):.11e}"
        return code, "\n".join([lines[0], ",".join(cells)] + lines[2:]), err
    if kind == "cli_clone":
        code, text, err = out
        return 1, text, err
    if kind == "gauss_state":
        shifted = gaussian.displace(out.clone_c, 0, 1e-6)
        return dataclasses.replace(out, clone_c=shifted)
    if kind == "expected_moments":
        return dataclasses.replace(out, var_ya=out.var_ya + 1e-8)
    if kind == "povm_params":
        return dataclasses.replace(out, disc=out.disc * (1 + 1e-9))
    if kind == "sample":
        return out + np.array([0.05, 0.0])
    raise AssertionError(kind)


KINDS = [("fock_clone", "fock_merged"), ("fock_clone", "fock_literal"),
         ("fock_clone", "sigma_report"), ("povm_grid", "povm_density"),
         ("povm_grid", "mixture"), ("gaussian_sweep", "cli_sweep"),
         ("gaussian_sweep", "cli_clone"), ("gaussian_sweep", "gauss_state"),
         ("gaussian_sweep", "expected_moments"),
         ("gaussian_sweep", "povm_params"), ("gaussian_sweep", "sample")]


@pytest.mark.parametrize("workload,kind", KINDS)
def test_gate_passes_real_output_and_fails_perturbed_output(
        workload, kind, tmp_path):
    job = _first(workload, kind)
    out = jobs.run_job(job, str(tmp_path))
    assert gate.check(job, out) is None
    assert gate.check(job, _perturbed(job, out)) is not None


def test_gate_fails_a_failed_check_in_the_suite():
    # a full suite takes seconds; the gate only reads names and statuses
    job = jobs.Job("verify", {"truncation": 25, "seed": 1})
    results = [CheckResult(name, "pass", "", 0.0) for name in (
        "commutator-algebra", "bch-identity", "unitarity",
        "backend-equivalence", "weyl-covariance", "clone-symmetry",
        "gains-consistency")]
    assert gate.check(job, results) is None
    assert gate.check(job, _perturbed(job, results)) is not None
    assert gate.check(job, results[:-1]) is not None


def test_gate_negative_density_fails():
    job = _first("povm_grid", "povm_density")
    xs = np.linspace(-5, 5, job.params["n"])
    vals = np.full((xs.size, xs.size), 1.0 / 100.0)
    vals[0, 0] = -1e-12
    assert "negative" in gate.check(job, (xs, vals))


def test_known_defects_fail_and_only_a_refusal_passes(tmp_path):
    job = _first("gaussian_sweep", "gauss_state", defect=True)
    accepted = jobs.run_job(job, str(tmp_path))
    reason = gate.check(job, accepted)
    assert gate.known_defect(job, reason) == jobs.KNOWN_COVARIANCE_DEFECT
    assert gate.check(job, error=InvalidArgumentError("refused")) is None
    assert gate.check(job, error=RuntimeError("crash")) is not None
    sigma = jobs.Job("sigma_report", {"sigma": 0.5, "lam": 5.0},
                     jobs.KNOWN_SIGMA_DEFECT)
    reason = gate.check(sigma, jobs.run_job(sigma, str(tmp_path)))
    assert gate.known_defect(sigma, reason) == jobs.KNOWN_SIGMA_DEFECT
    assert gate.known_defect(sigma, "raised RuntimeError: crash") is None


def test_only_the_documented_verify_failure_is_known():
    job = jobs.Job("verify", {"truncation": 25, "seed": 1})
    known = "checks failed: backend-equivalence"
    assert gate.known_defect(job, known) == gate.VERIFY_DEFECT
    assert gate.known_defect(job, "checks failed: bch-identity") is None
    assert gate.known_defect(job, known + ", unitarity") is None


def test_a_raising_job_fails():
    job = _first("fock_clone", "fock_merged")
    assert gate.check(job, error=ValueError("boom")).startswith("raised")


def test_every_tolerance_has_a_source():
    for name, (value, source) in gate.TOLERANCES.items():
        assert value >= 0 and source, name


# ----------------------------------------------------------------- tracer

def test_tracer_records_nested_spans_and_restores_entry_points():
    original = network.run_cloner
    tracer = tracing.Tracer()
    with tracer.install():
        assert network.run_cloner is not original
        tracer.job, tracer.enabled = 0, True
        network.run_cloner(0.2, network.network_from_lambda(2.0),
                           backend="fock", truncation=12)
        tracer.enabled = False
        network.run_cloner(0.2, network.network_from_lambda(2.0))
    assert network.run_cloner is original
    names = [s[3] for s in tracer.spans]
    assert "fock.apply_network_fock" in names
    assert "gaussian.reduce" not in names   # recorded only while enabled
    summary = tracing.summarize(tracer.spans)
    run = summary["names"]["network.run_cloner"]
    apply = summary["names"]["fock.apply_network_fock"]
    assert run["calls"] == 1 and apply["work"] == 12 ** 3
    assert 0 < run["self_s"] < run["s"]
    assert apply["s"] <= run["s"]
    by_id = {s[0]: s for s in tracer.spans}
    parent = by_id[next(s[1] for s in tracer.spans
                        if s[3] == "fock.apply_network_fock")]
    assert parent[3] == "network.run_cloner"


def test_traced_entry_points_cover_every_layer():
    import importlib
    for short in tracing.MODULES:
        module = importlib.import_module(f"cvclone.{short}")
        assert tracing.public_entry_points(module), short
    kernels = importlib.import_module("cvclone._kernels")
    names = {q for _, _, q in tracing.public_entry_points(kernels)}
    assert "_kernels.povm_grid_values" in names
    assert not any(q.endswith("_numpy") for q in names)
