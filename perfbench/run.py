"""hcscatter benchmark: one closed-loop client driving ``hcscatter.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Each op is one or more CLI invocations made in-process, back to back, with
stdout and stderr captured in memory; the next op starts when the previous
one has finished.  Every op's output is checked against an independent
reference computed outside the timed section (see checks.py).  Ops run
until ``--seconds`` of op time have been measured, then to the end of the
current stratified cycle (see workloads.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced then traced, and reports the per-layer split (see
tracer.py).  The last line of stdout is a JSON summary; a fuller record
with the environment stamp goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CliResult, Verdict, fail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Fresh interpreters timed for setup_s; the first SVD in a process is
# occasionally ~1 s instead of ~0.1 s, so one sample is not steady.
COLD_STARTS = 7
# Samples beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "1/s",  # work items per second; the workload defines an item
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.calls": "count/op",
    "cli.self_s": "s/op",
    "cli.bytes_out": "B/op",
    "cli.exit_nonzero": "count/op",
    "covariance.calls": "count/op",
    "covariance.busy_s": "s/op",
    "scattering.calls": "count/op",
    "scattering.busy_s": "s/op",
    "ellipse.calls": "count/op",
    "ellipse.busy_s": "s/op",
    "gridsim.auto_grid.busy_s": "s/op",
    "gridsim.sample.calls": "count/op",
    "gridsim.sample.busy_s": "s/op",
    "gridsim.norm.calls": "count/op",
    "gridsim.norm.busy_s": "s/op",
    "gridsim.norm_per_schmidt": "ratio",
    "gridsim.schmidt.calls": "count/op",
    "gridsim.schmidt.busy_s": "s/op",
    "gridsim.retained_rank": "count",
    "gridsim.rank_ratio": "ratio",
    "gridsim.amplitudes": "count/op",
    "gridsim.bytes_computed": "B/op",
    "gridsim.schmidt.flops_computed": "flop/op",
    "gridsim.coverage_errors": "count/op",
    "trace.overhead_s": "s",
    "trace.gridsim_share": "ratio",
    "trace.closed_form_share": "ratio",
}

_COLD_START = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import hcscatter.cli
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    codes = [hcscatter.cli.main(list(a)) for a in json.loads(sys.argv[1])]
print(json.dumps({"seconds": time.perf_counter() - t0, "codes": codes}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    return caches


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    maps = _read("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- running

def run_op(cli, op):
    """Run one op's CLI calls back to back; returns (seconds, results)."""
    results = []
    start = time.perf_counter()
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the op; keep measuring
                traceback.print_exc()
                code = 1
        results.append(CliResult(code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def check(op, results) -> Verdict:
    """The op's verdict; output that cannot be parsed fails the op."""
    try:
        return op.check(results)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return fail(f"unparseable output: {exc!r}")


def cold_starts(op) -> list[float]:
    """Seconds from ``import hcscatter.cli`` to the end of the workload's
    first op, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(COLD_STARTS):
        child = subprocess.run(
            [sys.executable, "-c", _COLD_START, json.dumps(op.argvs)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=False,
        )
        if child.returncode != 0:
            raise BenchError(f"cold start exited {child.returncode}: {child.stderr[-500:]}")
        report = json.loads(child.stdout.strip().splitlines()[-1])
        if any(report["codes"]):
            raise BenchError(f"cold start op exited {report['codes']}")
        samples.append(report["seconds"])
    return samples


def measure(cli, cycle: int, first, stream, seconds: float, tracer=None) -> dict:
    """Closed loop: ``first``, then ops from ``stream``, until ``seconds`` of
    op time have passed and a ``cycle`` of ops is complete.

    With a tracer each op runs untraced, then traced.
    """
    run_op(cli, first)  # warm-up: lazy imports and the first SVD's set-up
    plain, traced, failures = [], [], []
    busy, index = 0.0, 0
    while index == 0 or busy < seconds or index % cycle:
        op = first if index == 0 else next(stream)
        runs = [(plain, False)] + ([(traced, True)] if tracer else [])
        for samples, with_trace in runs:
            if with_trace:
                tracer.install()
                tracer.begin_op(index)
            try:
                elapsed, results = run_op(cli, op)
            finally:
                if with_trace:
                    tracer.uninstall()
            record = tracer.end_op() if with_trace else None
            verdict = check(op, results)
            if not verdict.ok:
                failures.append(f"op {index}: {verdict.reason}")
            samples.append({
                "seconds": elapsed,
                "work": op.work,
                "verdict": verdict,
                "bytes_out": sum(len(r.stdout.encode()) for r in results),
                "exit_nonzero": sum(r.code != 0 for r in results),
                "layers": record,
            })
            busy += elapsed
        index += 1
    return {"plain": plain, "traced": traced, "failures": failures}


# ---------------------------------------------------------------- metrics

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``TAIL_BEYOND``
    samples beyond it: the (N - 10)-th smallest of N samples."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(samples: list[dict], setup: list[float]) -> tuple[dict, dict]:
    times = [s["seconds"] for s in samples]
    value, percentile = tail(times)
    failed = sum(not s["verdict"].ok for s in samples)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_s_p50": (statistics.median(times), len(times)),
        "op_s_tail": (value, len(times)),
        "work_per_s": (sum(s["work"] for s in samples) / sum(times), len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    extras = {
        "op_s_tail_percentile": percentile,
        "fail_ratio": failed / len(samples),
        "max_err_bits": max(s["verdict"].err_bits for s in samples),
        "max_rel_err": max(s["verdict"].rel_err for s in samples),
        "max_ellipse_residual": max(s["verdict"].ellipse_residual for s in samples),
    }
    return metrics, extras


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    layers = [s["layers"] for s in traced]
    count = len(layers)

    def mean(key):
        return sum(rec[key] for rec in layers) / count

    ranks = [r for rec in layers for r in rec["ranks"]]
    ratios = [r for rec in layers for r in rec["rank_ratios"]]
    schmidt_calls = sum(rec["gridsim.schmidt.calls"] for rec in layers)
    traced_time = sum(s["seconds"] for s in traced)
    closed_form_time = sum(
        rec["cli.busy_s"] + rec["covariance.busy_s"] + rec["scattering.busy_s"] + rec["ellipse.busy_s"]
        for rec in layers
    )
    values = {
        "cli.calls": mean("cli.calls"),
        "cli.self_s": mean("cli.busy_s"),
        "cli.bytes_out": sum(s["bytes_out"] for s in traced) / count,
        "cli.exit_nonzero": sum(s["exit_nonzero"] for s in traced) / count,
        "gridsim.norm_per_schmidt": (
            sum(rec["gridsim.norm.calls"] for rec in layers) / schmidt_calls if schmidt_calls else 0.0
        ),
        "gridsim.retained_rank": statistics.mean(ranks) if ranks else 0.0,
        "gridsim.rank_ratio": statistics.mean(ratios) if ratios else 0.0,
        "trace.overhead_s": (
            statistics.median(s["seconds"] for s in traced)
            - statistics.median(s["seconds"] for s in plain)
        ),
        "trace.gridsim_share": sum(rec["gridsim_span_s"] for rec in layers) / traced_time,
        "trace.closed_form_share": closed_form_time / traced_time,
    }
    for name in PER_LAYER_UNITS:
        if name not in values:
            values[name] = mean(name)
    return {name: (values[name], count) for name in PER_LAYER_UNITS}


# ------------------------------------------------------------------- main

def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "hcscatter" / "cli.py").is_file():
        raise BenchError(f"no hcscatter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hcscatter
    import hcscatter.cli as cli

    from tracer import Tracer
    from workloads import WORKLOADS

    if hcscatter.__file__ is None or Path(hcscatter.__file__).resolve().parent != SRC / "hcscatter":
        raise BenchError(f"imported hcscatter from {hcscatter.__file__}, not from {SRC}")
    workload = WORKLOADS[workload_name]
    env = environment(seed)
    stream = workload.ops(seed)
    first = next(stream)
    setup = [] if trace else cold_starts(first)
    tracer = Tracer(hcscatter) if trace else None
    result = measure(cli, workload.cycle, first, stream, seconds, tracer)
    samples = result["plain"] + result["traced"]
    failed = sum(not s["verdict"].ok for s in samples)

    if trace:
        table, extras, units = per_layer(result["plain"], result["traced"]), {}, PER_LAYER_UNITS
    else:
        (table, extras), units = end_to_end(result["plain"], setup), END_TO_END_UNITS

    print(f"workload {workload_name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env))
    for name, (value, count) in table.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<9} n={count}")
    for name, value in extras.items():
        unit = {"op_s_tail_percentile": "%", "max_err_bits": "bits"}.get(name, "ratio")
        print(f"  {name:<32} {value:>14.6g} {unit:<9} n={len(result['plain'])}")
    for line in result["failures"][:20]:
        print("  FAILED " + line)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "attempted": len(samples),
        "failed": failed,
        "failures": result["failures"],
        "metrics": {n: {"value": v, "unit": units[n], "samples": c} for n, (v, c) in table.items()},
        "extras": {n: _finite(v) for n, v in extras.items()},
        "work_item": workload.work_item,
        "setup_samples_s": setup,
        "op_seconds": [s["seconds"] for s in result["plain"]],
        "computed_counters": {
            "gridsim.amplitudes": "sum of n1*n2 over sampled states",
            "gridsim.bytes_computed": "16*n1*n2 per Schmidt input (one read of the complex128 matrix)",
            "gridsim.schmidt.flops_computed": "4*(4*m*n^2 - 4*n^3/3), m >= n, per Schmidt input",
        },
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": tracer.spans,
            "per_op": tracer.ops,
        }) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in table.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("closed-form", "oracle", "transient"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
