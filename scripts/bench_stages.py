"""Before/after wall times of every CLI mode, and the stage split of single states.

Usage (from the repository root):

    python scripts/bench_stages.py --before OTHER_CHECKOUT --out BENCH.json

measures the ``src`` of this checkout ("after") and of OTHER_CHECKOUT
("before"), each in fresh interpreters, the two sides alternating for
``--rounds`` rounds, and writes one JSON record with the environment
stamp of ``perfbench/run.py``.  Per side it records

* the commit and the line count of ``src/hcscatter/*.py``;
* the process wall time of each mode (``single``, ``ellipse``,
  ``sweep-mu``, ``oracle-check`` and ``transient``) at its defaults,
  import included, in ``PROCESS_RUNS`` fresh interpreters per round;
* the same calls made in-process: the first call of a process apart
  from the warm calls after it;
* the split of the default ``transient`` state (n = 512) at t = 0, at
  the estimated collision time t_c and at 2.5 t_c, and of the default
  ``oracle-check`` state at n = 512 and 1024, and of an ``oracle-check``
  state at n = 894 whose first range sample fails (``FALL_THROUGH``), into
  sampling (through the public samplers, so it includes the sampler's own
  norm check), norm check and Schmidt spectrum;
* the ``tracemalloc`` peak, in bytes, of one sampling call of each of
  those states, its result included, and of one ``schmidt_spectrum``
  call on it;
* for each of those states, what the Schmidt stage hands LAPACK, read
  from the ``gridsim.schmidt_spectrum`` record of its last timed call:
  the column count of every range sample tried (at most one for a
  complex state, since only a real kept matrix restarts), the shape of
  the matrix left after the support trim, the dtype of the amplitudes,
  and ``k``, the sample the SVD's input was projected on, or, when the
  kept matrix itself is used, the record's route: "svd" for a real one,
  "gram" for a complex one, whose Gram matrix's eigenvalues are taken.

Times are medians over all samples; the samples are kept too.  Both
sides run this script's ``measure``, so OTHER_CHECKOUT must have
``gridsim.schmidt_spectrum`` with its ``SchmidtSpectrum.route`` and
``ScatterParams.collision_time``.
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("single", "ellipse", "sweep-mu", "oracle-check", "transient")
WARM_CALLS = 3
PROCESS_RUNS = 5
SPLIT_REPEATS = 5
ORACLE_NS = (512, 1024)
TRANSIENT_N = 512
TRANSIENT_POINTS = (("t=0", 0.0), ("t_c", 1.0), ("2.5 t_c", 2.5))
# A real oracle-check state whose first range sample fails and whose
# residual rate would size a restart past a quarter of the side.
FALL_THROUGH = {"mu1": 0.6911708539815785, "sigma1_sq": 132.0701346767239}
FALL_THROUGH_N = 894
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
        # Dropped first, so that a call does not time allocating its result
        # while the previous one is still held.
        result = None
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def _traced_peak(fn) -> int:
    """The traced peak, in bytes, of one call of fn, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split(gridsim, sample) -> tuple[dict, dict, int]:
    """Stage times of one sampled state, its LAPACK inputs, and the traced
    peak of one Schmidt spectrum call."""
    sampling, wave = _median_of(sample, SPLIT_REPEATS)
    norm, _ = _median_of(wave.norm, SPLIT_REPEATS)
    schmidt, spectrum = _median_of(lambda: gridsim.schmidt_spectrum(wave), SPLIT_REPEATS)
    times = {"sampling": sampling, "norm": norm, "schmidt": schmidt}
    lapack = {"samples": list(spectrum.samples), "kept": list(spectrum.kept_shape),
              "dtype": str(wave.amplitudes.dtype),
              "k": spectrum.samples[-1] if spectrum.route == "projection" else spectrum.route}
    return times, lapack, _traced_peak(lambda: gridsim.schmidt_spectrum(wave))


def measure() -> dict:
    """One fresh interpreter's measurements of the hcscatter it imports."""
    from hcscatter import cli, gridsim

    record = {"first_call_s": {}, "warm_call_s": {}, "split_s": {}, "lapack": {},
              "sampling_peak_bytes": {}, "schmidt_peak_bytes": {}}
    for mode in MODES:
        record["first_call_s"][mode] = _call(cli.main, mode)
        record["warm_call_s"][mode] = [_call(cli.main, mode) for _ in range(WARM_CALLS)]

    params = cli._resolve("transient", {}, {}).params
    t_c = params.collision_time
    states = {
        f"transient n={TRANSIENT_N} {label}":
            lambda t=factor * t_c: gridsim.collision_state(params, t, grid_n=TRANSIENT_N)
        for label, factor in TRANSIENT_POINTS
    }
    oracle = cli._resolve("oracle-check", {}, {}).params
    states.update({
        f"oracle-check n={n}": lambda n=n: gridsim.reflected_state(oracle, grid_n=n)
        for n in ORACLE_NS
    })
    fall_through = cli._resolve("oracle-check", FALL_THROUGH, {}).params
    states[f"oracle-check n={FALL_THROUGH_N} fall-through"] = (
        lambda: gridsim.reflected_state(fall_through, grid_n=FALL_THROUGH_N))
    for label, sample in states.items():
        (record["split_s"][label], record["lapack"][label],
         record["schmidt_peak_bytes"][label]) = _split(gridsim, sample)
        record["sampling_peak_bytes"][label] = _traced_peak(sample)
    return record


def _run_side(src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    record = json.loads(done.stdout)
    record["process_s"] = {mode: [] for mode in MODES}
    for _ in range(PROCESS_RUNS):
        for mode in MODES:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", CLI, mode], env=env,
                           stdout=subprocess.DEVNULL, check=True)
            record["process_s"][mode].append(time.perf_counter() - start)
    return record


def _merge(records: list) -> dict:
    """Medians over the rounds, with every sample kept."""

    def merged(values):
        samples = []
        for value in values:
            samples.extend(value if isinstance(value, list) else [value])
        return {"median": statistics.median(samples), "samples": samples}

    out = {key: {name: merged(record[key][name] for record in records)
                 for name in records[0][key]}
           for key in ("process_s", "first_call_s", "warm_call_s", "sampling_peak_bytes",
                       "schmidt_peak_bytes")}
    out["split_s"] = {label: {stage: merged(record["split_s"][label][stage] for record in records)
                              for stage in stages}
                      for label, stages in records[0]["split_s"].items()}
    out["lapack"] = records[0]["lapack"]
    return out


def _source_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "hcscatter").glob("*.py"))


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
        "process_runs_per_round": PROCESS_RUNS,
        "split_repeats": SPLIT_REPEATS,
        "unit": "s",
        **{side: {"commit": _commit(path), "source_lines": _source_lines(path),
                  **_merge(runs[side])}
           for side, path in sides.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
