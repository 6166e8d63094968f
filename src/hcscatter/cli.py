"""Command-line front end.

One parser: a positional argument picks one of the five ``MODES``, each
one row with its runner, ``--help`` line, fewest points and defaults,
and every mode takes the same flags.

Outputs are CSV (scalars in '#' header lines, 17 significant digits) or
JSON; identical configurations produce byte-identical files, and each
warning goes to stderr as one 'warning: ...' line.  Exit codes: 0 success,
2 validation error or out of memory, 3 I/O error, 4 oracle-check failure.
Only the grid modes import ``gridsim`` (and numpy), when they run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

from .covariance import MassFractions, d_minus_half, entropy_from_d_minus_half, purity_from_d
from .ellipse import EllipseShape, approx_final_ellipse, scattered_ellipse
from .scattering import ScatterParams, d_asymptotic, is_zero_entanglement

__all__ = ["SweepConfig", "main", "entrypoint",
           "run_single", "run_sweep_mu", "run_ellipse", "run_transient",
           "run_oracle_check"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ORACLE = 4

ORACLE_TOL_BITS = 1e-3

_DEFAULTS = {
    "sigma2_sq": 1.0,
    "ratio": 10.0,
    "mu1": 0.25,
    "momentum": 1.0,
    "core_radius": 0.5,
    "grid_n": 512,
    "format": "csv",
}

# Parameter pairs that select the same quantity two ways.  Keys on one
# side go together, giving both sides is an error, and a flag on one side
# silences file-supplied values on the other.
_ALTERNATIVES = ((("sigma1_sq",), ("ratio",)), (("mu1",), ("mass1", "mass2")))

# ratio ** 2 overflows a double above about 1.34e154.
_MAX_RATIO = 1e154


@dataclass
class SweepConfig:
    """Fully resolved run configuration for one CLI invocation: the
    scenario plus the settings that only concern the run."""

    mode: str
    params: ScatterParams
    grid_n: int
    points: int
    t_start: float | None
    t_stop: float | None
    out: str | None
    fmt: str


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def parse_config_file(path: str, types: dict) -> dict:
    """Read a flat key=value file; '#' starts a comment, blank lines skipped.

    ``types`` maps each known key to the type its command-line flag takes.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = types[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _resolve(mode: str, flags: dict, file_values: dict) -> SweepConfig:
    """Layer the given flags over the configuration file's values over
    the mode defaults, and validate the result."""
    for pair in _ALTERNATIVES:
        for side, other in (pair, pair[::-1]):
            if flags.keys() & side:
                file_values = {k: v for k, v in file_values.items() if k not in other}
    explicit = set(file_values) | set(flags)
    merged = {**_DEFAULTS, **MODES[mode].defaults, **file_values, **flags}

    for left, right in _ALTERNATIVES:
        for side in (left, right):
            if 0 < len(explicit.intersection(side)) < len(side):
                raise ValueError(" and ".join(map(_flag, side)) + " must be given together")
        if explicit.intersection(left) and explicit.intersection(right):
            raise ValueError(
                f"give either {'/'.join(map(_flag, left))} or "
                f"{'/'.join(map(_flag, right))}, not both"
            )

    sigma2_sq = merged["sigma2_sq"]
    if "sigma1_sq" in explicit:
        sigma1_sq = merged["sigma1_sq"]
    else:
        ratio = merged["ratio"]
        if not 0.0 < ratio <= _MAX_RATIO:
            raise ValueError(
                f"width ratio must be finite, positive and at most {_MAX_RATIO:g}, got {ratio}"
            )
        if not math.isfinite(sigma2_sq):
            raise ValueError(f"sigma2_sq must be finite, got {sigma2_sq}")
        sigma1_sq = ratio**2 * sigma2_sq
        if ratio**2 < sys.float_info.min:  # a subnormal square has lost digits
            sigma1_sq = ratio * (ratio * sigma2_sq)
        if sigma1_sq == 0.0 < sigma2_sq:
            raise ValueError(f"width ratio {ratio} is too small: ratio**2 * sigma2_sq underflows")
        if math.isinf(sigma1_sq):
            raise ValueError(f"width ratio {ratio} is too large: ratio**2 * sigma2_sq overflows")

    # Raw masses are normalized by ScatterParams; a bare mu1 enters as its
    # MassFractions, whose delta = 2 mu1 - 1 is rounded once.
    if "mass1" in explicit:
        masses, fractions = (merged["mass1"], merged["mass2"]), None
    else:
        fractions = MassFractions(merged["mu1"])
        masses = fractions.mu1, fractions.mu2

    points, fewest = int(merged.get("points", 0)), MODES[mode].min_points
    if fewest and points < fewest:
        raise ValueError(f"{mode} needs at least {fewest} point{'s' * (fewest > 1)}, got {points}")

    params = ScatterParams(
        *masses,
        sigma1_sq,
        sigma2_sq,
        momentum=merged["momentum"],
        core_radius=merged["core_radius"],
        q1=merged.get("q1"),
        q2=merged.get("q2"),
        fractions=fractions,
    )
    return SweepConfig(
        mode=mode,
        params=params,
        grid_n=merged["grid_n"],
        points=points,
        t_start=merged.get("t_start"),
        t_stop=merged.get("t_stop"),
        out=merged.get("out"),
        fmt=merged["format"],
    )


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced points from start to stop, bit for bit
    ``np.linspace(start, stop, count).tolist()``.  numpy divides instead where
    the step underflows to 0; points repeat then, and ``transient_curve`` rejects them."""
    if count < 2:
        return [start][:count]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count - 1)] + [stop]


def _entanglement(mu: MassFractions, sigma1_sq: float, sigma2_sq: float):
    """Closed-form d with its entropy (bits) and purity."""
    e = d_minus_half(mu, sigma1_sq, sigma2_sq)
    d = 0.5 + e
    return d, entropy_from_d_minus_half(e), purity_from_d(d)


def run_single(cfg: SweepConfig) -> dict:
    """One closed-form evaluation of the collision entanglement."""
    params = cfg.params
    mu = params.fractions
    d_exact, entropy, purity = _entanglement(mu, params.sigma1_sq, params.sigma2_sq)
    return {
        "mu1": mu.mu1,
        "mu2": mu.mu2,
        "sigma1_sq": params.sigma1_sq,
        "sigma2_sq": params.sigma2_sq,
        "d_exact": d_exact,
        "d_asymptotic": d_asymptotic(mu.mu1, params.width_ratio),
        "entropy_bits": entropy,
        "purity": purity,
        "classification": is_zero_entanglement(params),
    }


def run_sweep_mu(cfg: SweepConfig) -> dict:
    """Tabulate exact and leading-order d over a uniform mu1 grid.

    The grid spans [0.01, 0.99]; the exact pipeline needs mu1 strictly
    inside the open interval, and the leading-order value at the closed
    endpoint mu1 = 1 is reported separately in the metadata.  The scenario
    fixes only the widths; its masses play no part.
    """
    sigma1_sq, sigma2_sq = cfg.params.sigma1_sq, cfg.params.sigma2_sq
    ratio = cfg.params.width_ratio
    rows = []
    for mu1 in _linspace(0.01, 0.99, cfg.points):
        d_exact, entropy, purity = _entanglement(MassFractions(mu1), sigma1_sq, sigma2_sq)
        rows.append({"mu1": mu1, "d_exact": d_exact, "d_asymptotic": d_asymptotic(mu1, ratio),
                     "entropy_bits": entropy, "purity": purity})
    meta = {
        "sigma1_sq": sigma1_sq,
        "sigma2_sq": sigma2_sq,
        "width_ratio": ratio,
        "points": cfg.points,
        "d_asymptotic_at_mu1_1": d_asymptotic(1.0, ratio),
    }
    return {"meta": meta, "rows": rows}


def run_ellipse(cfg: SweepConfig) -> dict:
    """Exact and approximate outgoing-ellipse geometry plus boundary points."""
    params = cfg.params
    mu = params.fractions
    s1, s2 = params.sigma1_sq, params.sigma2_sq
    exact = scattered_ellipse(mu, s1, s2)
    sigma1, sigma2 = math.sqrt(s1), math.sqrt(s2)
    initial = EllipseShape.from_axes(sigma1, sigma2, 0.0)
    if math.isinf(max(initial.area, exact.area)):
        raise ValueError(f"ellipse area overflows, got sigma1_sq={s1}, sigma2_sq={s2}")
    approx = approx_final_ellipse(mu.mu1, sigma1, sigma2)
    if params.width_ratio < 10.0:
        print(f"warning: width ratio {params.width_ratio:.3g} is below 10; the wide-packet "
              "approximation degrades", file=sys.stderr)
    return {
        "mu1": mu.mu1,
        "sigma1_sq": s1,
        "sigma2_sq": s2,
        "initial_semi_major": initial.semi_major,
        "initial_semi_minor": initial.semi_minor,
        "initial_angle_rad": initial.angle_rad,
        "exact_semi_major": exact.semi_major,
        "exact_semi_minor": exact.semi_minor,
        "exact_angle_rad": exact.angle_rad,
        "approx_semi_major": approx.semi_major,
        "approx_semi_minor": approx.semi_minor,
        "approx_angle_rad": approx.angle_rad,
        "initial_area": initial.area,
        "final_area": exact.area,
        "boundary_initial": initial.boundary_points(cfg.points),
        "boundary_final": exact.boundary_points(cfg.points),
    }


def run_transient(cfg: SweepConfig) -> dict:
    """Entropy along a time grid, with the analytic asymptote for reference.

    The default window runs from 0 to 2.5 times the estimated collision
    time (packet separation over the relative velocity).
    """
    from .gridsim import COVERAGE, transient_curve
    params = cfg.params
    t_collision = params.collision_time
    t_start = 0.0 if cfg.t_start is None else cfg.t_start
    t_stop = 2.5 * t_collision if cfg.t_stop is None else cfg.t_stop
    if not math.isfinite(t_stop - t_start):
        raise ValueError(f"time window [{t_start}, {t_stop}] is not finite "
                         f"(estimated collision time {t_collision})")
    if not t_stop > t_start:
        raise ValueError("t_stop must exceed t_start")
    times = _linspace(t_start, t_stop, cfg.points)
    entropies = transient_curve(params, times, grid_n=cfg.grid_n)
    _, asymptote, _ = _entanglement(params.fractions, params.sigma1_sq, params.sigma2_sq)
    meta = {
        "mu1": params.fractions.mu1,
        "sigma1_sq": params.sigma1_sq,
        "sigma2_sq": params.sigma2_sq,
        "momentum": params.momentum,
        "core_radius": params.core_radius,
        "q1": params.q1,
        "q2": params.q2,
        "grid_n": cfg.grid_n,
        "coverage": COVERAGE,
        "analytic_entropy_bits": asymptote,
        "estimated_collision_time": t_collision,
    }
    rows = [{"time": t, "entropy_bits": s} for t, s in zip(times, entropies)]
    return {"meta": meta, "rows": rows}


def run_oracle_check(cfg: SweepConfig) -> dict:
    """Compare the Schmidt entropy of the sampled outgoing state with the
    closed form; passes when they agree within 1e-3 bits."""
    from .gridsim import reflected_state, schmidt_entropy
    params = cfg.params
    _, analytic, _ = _entanglement(params.fractions, params.sigma1_sq, params.sigma2_sq)
    wave = reflected_state(params, grid_n=cfg.grid_n)
    schmidt = schmidt_entropy(wave)
    difference = abs(schmidt - analytic)
    return {
        "analytic_entropy_bits": analytic,
        "schmidt_entropy_bits": schmidt,
        "abs_difference_bits": difference,
        "grid_n": cfg.grid_n,
        "passed": bool(difference <= ORACLE_TOL_BITS),
    }


# One row per mode: its runner, the line --help prints, the fewest --points
# it accepts (0 when it ignores them) and the values it overrides in _DEFAULTS.
Mode = namedtuple("Mode", "run help min_points defaults")
MODES = {
    "single": Mode(run_single, "closed-form evaluation of one scenario", 0, {}),
    "sweep-mu": Mode(run_sweep_mu, "d, entropy and purity over a mu1 grid at fixed width ratio",
                     2, {"points": 99}),
    "ellipse": Mode(run_ellipse, "outgoing-ellipse geometry with boundary points",
                    1, {"points": 64}),
    "transient": Mode(run_transient, "entropy along a time grid from the image solution",
                      1, {"points": 25, "ratio": 4.0, "momentum": 4.0}),
    "oracle-check": Mode(run_oracle_check,
                         "Schmidt entropy of the sampled state vs the closed form", 0, {}),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_lines(record: dict, mode: str) -> list[str]:
    lines = []
    if mode in ("single", "oracle-check"):
        lines.append(",".join(record))
        lines.append(",".join(_fmt(v) for v in record.values()))
    elif mode in ("sweep-mu", "transient"):
        for key, value in record["meta"].items():
            lines.append(f"# {key} = {_fmt(value)}")
        columns = list(record["rows"][0])
        lines.append(",".join(columns))
        for row in record["rows"]:
            lines.append(",".join(_fmt(row[c]) for c in columns))
    else:  # ellipse
        for key, value in record.items():
            if key.startswith("boundary_"):
                continue
            lines.append(f"# {key} = {_fmt(value)}")
        lines.append("ellipse,idx,x1,x2")
        for name in ("initial", "final"):
            for idx, (x, y) in enumerate(record[f"boundary_{name}"]):
                lines.append(f"{name},{idx},{_fmt(x)},{_fmt(y)}")
    return lines


def _emit(record: dict, cfg: SweepConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        text = "\n".join(_csv_lines(record, cfg.mode)) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The CLI parser, and the type of each scenario and numerics key, which configuration
    files share with the flags; for a flag with choices, that type checks them in files."""
    parser = argparse.ArgumentParser(
        prog="hcscatter",
        usage="%(prog)s [-h] mode [options]",
        description="Entanglement from 1D hard-core scattering of two Gaussian packets.\n\n"
        "modes:\n" + "\n".join(f"  {name:<14}{mode.help}" for name, mode in MODES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", choices=MODES, metavar="mode", help="one of the modes above")
    scenario = parser.add_argument_group("scenario")
    numerics = parser.add_argument_group("numerics and output")
    keyed = [
        scenario.add_argument("--mu1", type=float, help="mass fraction of particle 1"),
        scenario.add_argument("--mass1", type=float, help="raw mass of particle 1"),
        scenario.add_argument("--mass2", type=float, help="raw mass of particle 2"),
        scenario.add_argument("--sigma1-sq", type=float, help="squared width of packet 1"),
        scenario.add_argument("--sigma2-sq", type=float,
                              help="squared width of packet 2 (default 1)"),
        scenario.add_argument("--ratio", type=float,
                              help="width ratio sigma1/sigma2 (alternative to --sigma1-sq)"),
        scenario.add_argument("--core-radius", type=float, help="hard-core radius a"),
        scenario.add_argument("--momentum", type=float, help="approach momentum K"),
        scenario.add_argument("--q1", type=float, help="initial center of packet 1 (> a)"),
        scenario.add_argument("--q2", type=float,
                              help="initial center distance of packet 2 (> a)"),
        numerics.add_argument("--grid-n", type=int, help="grid points per axis (default 512)"),
        numerics.add_argument("--points", type=int, help="number of sweep/time/boundary points"),
        numerics.add_argument("--t-start", type=float, help="first time point"),
        numerics.add_argument("--t-stop", type=float, help="last time point"),
        numerics.add_argument("--out", help="output path (default: stdout)"),
        numerics.add_argument("--format", choices=("csv", "json"),
                              help="output format (default csv)"),
    ]
    numerics.add_argument("--config", help="flat key=value configuration file; "
                                           "explicit flags win")
    def one_of(choices, value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be {' or '.join(choices)}, got {value!r}")
        return value
    types = {a.dest: partial(one_of, a.choices) if a.choices else a.type or str for a in keyed}
    return parser, types


def main(argv=None) -> int:
    parser, types = _build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in types and v is not None}
    cfg = None
    try:
        file_values = {} if args.config is None else parse_config_file(args.config, types)
        cfg = _resolve(args.mode, flags, file_values)
        record = MODES[cfg.mode].run(cfg)
        _emit(record, cfg)
    except MemoryError:
        where = "" if cfg is None else f" at grid_n={cfg.grid_n}"
        print(f"error: {args.mode} ran out of memory{where}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:  # CoverageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
    if cfg.mode == "oracle-check" and not record["passed"]:
        print(
            f"oracle check failed: |schmidt - analytic| = "
            f"{record['abs_difference_bits']:.3e} bits exceeds {ORACLE_TOL_BITS}",
            file=sys.stderr,
        )
        return EXIT_ORACLE
    return EXIT_OK


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())
