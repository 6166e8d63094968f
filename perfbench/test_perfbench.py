"""Tests of the benchmark itself: short runs of each workload, the metric
contract, and each reference check rejecting a perturbed output.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hcscatter  # noqa: E402
import hcscatter.cli as cli  # noqa: E402

import run  # noqa: E402
from checks import CliResult  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TRANSIENT_GRID,
    TRANSIENT_MASS_RATIO,
    TRANSIENT_MAX_PHASE_STEP,
    TRANSIENT_MOMENTUM,
    TRANSIENT_WIDTH_RATIO,
    WORKLOADS,
    closed_form_op,
    closed_form_ops,
    closed_form_scenarios,
    oracle_op,
    phase_step,
    transient_op,
    transient_points,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Short configurations: a small closed-form pool, a few ops each.
SHORT = {
    "closed-form": replace(WORKLOADS["closed-form"], cycle=3,
                           ops=functools.partial(closed_form_ops, size=3)),
    "oracle": WORKLOADS["oracle"],
    "transient": WORKLOADS["transient"],
}


def _short_run(name, tracer=None):
    workload = SHORT[name]
    stream = workload.ops(5)
    first = next(stream)
    return run.measure(cli, workload.cycle, first, stream, 0.0, tracer)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_run_passes_and_reports_every_metric(name):
    result = _short_run(name)
    assert result["failures"] == []
    metrics, extras = run.end_to_end(result["plain"], [0.25, 0.3])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for value, count in metrics.values():
        assert value > 0 and count >= 1
    assert extras["fail_ratio"] == 0.0
    assert {"op_s_tail_percentile", "max_err_bits", "max_rel_err"} <= set(extras)


@pytest.mark.parametrize("name", ["closed-form", "oracle"])
def test_traced_run_splits_the_op_into_layers(name):
    tracer = Tracer(hcscatter)
    result = _short_run(name, tracer)
    assert result["failures"] == []
    assert cli.main.__module__ == "hcscatter.cli" and not hasattr(cli.main, "__wrapped__")
    layers = run.per_layer(result["plain"], result["traced"])
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    share = "trace.gridsim_share" if name == "oracle" else "trace.closed_form_share"
    assert layers[share][0] >= 0.9
    if name == "oracle":
        assert layers["gridsim.norm_per_schmidt"][0] == 2.0
        assert 0 < layers["gridsim.rank_ratio"][0] < 0.2
    assert all(span[4] is not None for span in tracer.spans)


def test_benchmark_json_matches_the_units_printed():
    units = dict(run.END_TO_END_UNITS)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["name"] in units and metric["better"] in ("lower", "higher")
    for metric in BENCHMARK["per_layer"]:
        assert run.PER_LAYER_UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_command_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 8
    for metric in BENCHMARK["end_to_end"]:
        entry = last["metrics"][metric["name"]]
        assert entry["value"] > 0 and entry["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ------------------------------------------------ perturbed outputs are caught

def _outputs(op):
    return run.run_op(cli, op)[1]


def _edit_json(result: CliResult, edit) -> CliResult:
    record = json.loads(result.stdout)
    edit(record)
    return CliResult(result.code, json.dumps(record), result.stderr)


@pytest.fixture(scope="module")
def closed_form_json():
    sc = next(s for s in closed_form_scenarios(1, 6) if s["format"] == "json")
    op = closed_form_op(dict(sc, rows=50))
    results = _outputs(op)
    assert op.check(results).ok
    return op, results


@pytest.mark.parametrize("index, edit", [
    (0, lambda r: r.update(entropy_bits=r["entropy_bits"] + 1e-8)),
    (0, lambda r: r.update(d_exact=r["d_exact"] * (1 + 1e-10))),
    (0, lambda r: r.update(purity=r["purity"] * (1 - 1e-10))),
    (2, lambda r: r["rows"][7].update(entropy_bits=r["rows"][7]["entropy_bits"] + 1e-8)),
    (2, lambda r: r["rows"][3].update(purity=r["rows"][3]["purity"] * (1 + 1e-10))),
    (2, lambda r: r["rows"].pop()),
    (1, lambda r: r["boundary_initial"][2].__setitem__(0, r["boundary_initial"][2][0] * (1 + 1e-6))),
    (1, lambda r: r["boundary_final"].pop()),
    (1, lambda r: r.update(final_area=r["final_area"] * (1 + 1e-6))),
])
def test_closed_form_check_rejects_perturbed_values(closed_form_json, index, edit):
    op, results = closed_form_json
    results = list(results)
    results[index] = _edit_json(results[index], edit)
    assert not op.check(results).ok


def test_closed_form_check_reads_csv():
    sc = next(s for s in closed_form_scenarios(1, 6) if s["format"] == "csv")
    op = closed_form_op(dict(sc, rows=40))
    results = _outputs(op)
    assert op.check(results).ok
    lines = results[2].stdout.splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-8)  # entropy_bits of the last row
    lines[-1] = ",".join(cells)
    results[2] = CliResult(0, "\n".join(lines) + "\n", "")
    assert not op.check(results).ok


def test_oracle_check_rejects_perturbed_values():
    op = oracle_op(0.3, 25.0, 128, "json")
    results = _outputs(op)
    assert op.check(results).ok
    for edit in (
        lambda r: r.update(schmidt_entropy_bits=r["schmidt_entropy_bits"] + 2e-3),
        lambda r: r.update(analytic_entropy_bits=r["analytic_entropy_bits"] + 1e-8),
        lambda r: r.update(passed=False),
    ):
        assert not op.check([_edit_json(results[0], edit)]).ok
    assert not op.check([CliResult(4, results[0].stdout, "")]).ok
    for garbage in ("", "{", "a,b\n1,2\n"):
        assert not run.check(op, [CliResult(0, garbage, "")]).ok


def test_transient_check_rejects_perturbed_values():
    op = transient_op(3.0, 16.0, 4.0, 160, 8, "json")
    results = _outputs(op)
    assert op.check(results).ok
    entropies = [row["entropy_bits"] for row in json.loads(results[0].stdout)["rows"]]
    peak = entropies.index(max(entropies))

    def bump(row, delta):
        return lambda r: r["rows"][row].update(entropy_bits=r["rows"][row]["entropy_bits"] + delta)

    for edit in (bump(0, 1e-5), bump(-1, 2e-3), bump(peak, -1e-5)):
        assert not op.check([_edit_json(results[0], edit)]).ok


# ------------------------------------------------------------ workload inputs

def test_phase_step_matches_the_auto_grid():
    from hcscatter.gridsim import auto_grid
    from hcscatter.scattering import ScatterParams

    mass2, sigma1_sq, momentum, n, points = 3.0, 58.2, 27.1, 293, 18
    params = ScatterParams(1.0, mass2, sigma1_sq, 1.0, momentum=momentum, core_radius=0.5)
    t_collision = (params.q1 + params.q2 - params.core_radius) * params.mass1 * params.mass2 / momentum
    want = max(
        momentum * max(grid.dx1, grid.dx2)
        for grid in (auto_grid(params, t, "both", n) for t in [2.5 * t_collision * i / (points - 1)
                                                                   for i in range(points)])
    )
    assert phase_step(mass2, sigma1_sq, momentum, n, points) == pytest.approx(want, rel=1e-12)


def test_lowest_momentum_meets_the_phase_cap_everywhere():
    worst = max(
        phase_step(mass2, ratio**2, TRANSIENT_MOMENTUM[0], n, transient_points(n))
        for mass2 in TRANSIENT_MASS_RATIO
        for ratio in TRANSIENT_WIDTH_RATIO
        for n in (TRANSIENT_GRID[0], TRANSIENT_GRID[0] + 1, TRANSIENT_GRID[1])
    )
    assert worst < TRANSIENT_MAX_PHASE_STEP
