"""Before/after wall times of every CLI mode, and the split of one time point.

Usage (from the repository root):

    python scripts/bench_stages.py --before OTHER_CHECKOUT --out BENCH.json

measures the ``src`` of this checkout ("after") and of OTHER_CHECKOUT
("before"), each in fresh interpreters, the two sides alternating for
``--rounds`` rounds, and writes one JSON record with the environment
stamp of ``perfbench/run.py``.  Per side it records

* the process wall time of each mode (``single``, ``ellipse``,
  ``sweep-mu``, ``oracle-check`` and ``transient``) at its defaults,
  import included;
* the same calls made in-process: the first call of a process apart
  from the warm calls after it;
* the split of the default ``transient`` time point at the estimated
  collision time t_c (n = 512) into sampling, norm check and Schmidt
  entropy, and the shape of the matrix the SVD gets at t = 0, t_c and
  2.5 t_c;
* the same split of the default ``oracle-check`` state at n = 1024, taken
  through the public ``reflected_state`` (its sampling time includes the
  sampler's own norm check) and ``schmidt_entropy``, and the dtype of the
  matrix the SVD gets.

Times are medians over all samples; the samples are kept too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("single", "ellipse", "sweep-mu", "oracle-check", "transient")
WARM_CALLS = 3
SPLIT_REPEATS = 5
ORACLE_N = 1024
CLI = "import sys; from hcscatter.cli import main; sys.exit(main(sys.argv[1:]))"


def _call(main, mode) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([mode])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{mode} exited {code}")
    return elapsed


def _median_of(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def measure() -> dict:
    """One fresh interpreter's measurements of the hcscatter it imports."""
    from hcscatter import cli, gridsim

    record = {"first_call_s": {}, "warm_call_s": {}}
    for mode in MODES:
        record["first_call_s"][mode] = _call(cli.main, mode)
        record["warm_call_s"][mode] = [_call(cli.main, mode) for _ in range(WARM_CALLS)]

    params = cli._resolve("transient", {}, {}).params
    separation = params.q1 + params.q2 - params.core_radius
    t_c = separation * params.mass1 * params.mass2 / params.momentum
    grid = gridsim.auto_grid(params, t_c, "both", 512)
    x1, x2 = grid.axes()
    e1, e2 = gridsim._evolved_pair(params, t_c)
    sampling, amplitudes = _median_of(
        lambda: gridsim._collision_amplitudes(params, e1, e2, x1, x2), SPLIT_REPEATS)
    wave = gridsim.WaveGrid(amplitudes, grid)
    norm, _ = _median_of(wave.norm, SPLIT_REPEATS)
    schmidt, _ = _median_of(lambda: gridsim.schmidt_entropy(wave), SPLIT_REPEATS)
    record["split_n512_tc_s"] = {"sampling": sampling, "norm": norm, "schmidt": schmidt}

    support = getattr(gridsim, "_support", lambda amplitudes: amplitudes)
    record["svd_shape_n512"] = {
        label: list(support(gridsim.collision_state(params, factor * t_c).amplitudes).shape)
        for label, factor in (("t=0", 0.0), ("t_c", 1.0), ("2.5 t_c", 2.5))
    }

    params = cli._resolve("oracle-check", {}, {}).params
    sampling, wave = _median_of(
        lambda: gridsim.reflected_state(params, grid_n=ORACLE_N), SPLIT_REPEATS)
    norm, _ = _median_of(wave.norm, SPLIT_REPEATS)
    schmidt, _ = _median_of(lambda: gridsim.schmidt_entropy(wave), SPLIT_REPEATS)
    record["oracle_split_n1024_s"] = {"sampling": sampling, "norm": norm, "schmidt": schmidt}
    # schmidt_entropy hands the SVD the amplitudes or a subset of them.
    record["oracle_svd_dtype"] = str(wave.amplitudes.dtype)
    return record


def _run_side(src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    record = json.loads(done.stdout)
    record["process_s"] = {}
    for mode in MODES:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CLI, mode], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        record["process_s"][mode] = time.perf_counter() - start
    return record


def _merge(records: list) -> dict:
    """Medians over the rounds, with every sample kept."""
    out = {}
    for key in ("process_s", "first_call_s", "warm_call_s", "split_n512_tc_s",
                "oracle_split_n1024_s"):
        out[key] = {}
        for name in records[0][key]:
            samples = []
            for record in records:
                value = record[key][name]
                samples.extend(value if isinstance(value, list) else [value])
            out[key][name] = {"median": statistics.median(samples), "samples": samples}
    out["svd_shape_n512"] = records[0]["svd_shape_n512"]
    out["oracle_svd_dtype"] = records[0]["oracle_svd_dtype"]
    return out


def _commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--out", type=Path, help="where to write the JSON record")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import environment

    sides = {"before": args.before.resolve(), "after": ROOT}
    runs = {side: [] for side in sides}
    for round_index in range(args.rounds):
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(_run_side(sides[side] / "src"))
    env = environment(None)
    env.pop("seed")
    record = {
        "env": env,
        "rounds": args.rounds,
        "warm_calls_per_round": WARM_CALLS,
        "split_repeats": SPLIT_REPEATS,
        "unit": "s",
        **{side: {"commit": _commit(path), **_merge(runs[side])} for side, path in sides.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
