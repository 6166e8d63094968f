"""Command-line front end.

One parser: a positional argument picks one of the five ``MODES``,
which ``--help`` lists with their descriptions, and every mode takes the
same flags.

Outputs are CSV (scalars in '#' header lines, 17 significant digits) or
JSON; identical configurations produce byte-identical files, and
each warning goes to stderr as one 'warning: ...' line.  Exit codes:
0 success, 2 validation error, 3 I/O error, 4 oracle-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .covariance import MassFractions, d_minus_half, entropy_from_d_minus_half, purity_from_d
from .ellipse import EllipseShape, approx_final_ellipse, scattered_ellipse
from .gridsim import reflected_state, schmidt_entropy, transient_curve
from .scattering import ScatterParams, d_asymptotic, is_zero_entanglement

__all__ = ["SweepConfig", "main", "entrypoint",
           "run_single", "run_sweep_mu", "run_ellipse", "run_transient",
           "run_oracle_check"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ORACLE = 4

ORACLE_TOL_BITS = 1e-3

# Each mode with the one-line description that --help prints.
MODES = {
    "single": "closed-form evaluation of one scenario",
    "sweep-mu": "d, entropy and purity over a mu1 grid at fixed width ratio",
    "ellipse": "outgoing-ellipse geometry with boundary points",
    "transient": "entropy along a time grid from the image solution",
    "oracle-check": "Schmidt entropy of the sampled state vs the closed form",
}

_DEFAULTS = {
    "sigma2_sq": 1.0,
    "ratio": 10.0,
    "mu1": 0.25,
    "momentum": 1.0,
    "core_radius": 0.5,
    "grid_n": 512,
    "coverage": 6.0,
    "format": "csv",
}
# Per-mode values that override _DEFAULTS.
_MODE_DEFAULTS = {
    "sweep-mu": {"points": 99},
    "ellipse": {"points": 64},
    "transient": {"points": 25, "ratio": 4.0, "momentum": 4.0},
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
    coverage: float
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
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            values[key] = types[key](value.strip())
    return values


def _resolve(mode: str, flags: dict, file_values: dict) -> SweepConfig:
    """Layer the given flags over the configuration file's values over
    the mode defaults, and validate the result."""
    for pair in _ALTERNATIVES:
        for side, other in (pair, pair[::-1]):
            if flags.keys() & side:
                file_values = {k: v for k, v in file_values.items() if k not in other}
    explicit = set(file_values) | set(flags)
    merged = {**_DEFAULTS, **_MODE_DEFAULTS.get(mode, {}), **file_values, **flags}

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
        sigma1_sq = ratio**2 * sigma2_sq

    # Raw masses are normalized by ScatterParams; a bare mu1 enters as the
    # pair (mu1, 1 - mu1).
    if "mass1" in explicit:
        masses = merged["mass1"], merged["mass2"]
    else:
        mu = MassFractions(merged["mu1"])
        masses = mu.mu1, mu.mu2

    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")

    points = int(merged.get("points", 0))
    if mode == "sweep-mu" and points < 2:
        raise ValueError(f"sweep-mu needs at least 2 points, got {points}")
    if mode in ("transient", "ellipse") and points < 1:
        raise ValueError(f"{mode} needs at least 1 point, got {points}")

    t_start = merged.get("t_start")
    t_stop = merged.get("t_stop")
    if t_start is not None and t_stop is not None and not t_stop > t_start:
        raise ValueError("t_stop must exceed t_start")

    params = ScatterParams(
        *masses,
        sigma1_sq,
        sigma2_sq,
        momentum=merged["momentum"],
        core_radius=merged["core_radius"],
        q1=merged.get("q1"),
        q2=merged.get("q2"),
    )
    return SweepConfig(
        mode=mode,
        params=params,
        grid_n=merged["grid_n"],
        coverage=merged["coverage"],
        points=points,
        t_start=t_start,
        t_stop=t_stop,
        out=merged.get("out"),
        fmt=fmt,
    )


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
        "classification": is_zero_entanglement(params).value,
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
    for mu1 in np.linspace(0.01, 0.99, cfg.points).tolist():
        d_exact, entropy, purity = _entanglement(MassFractions(mu1), sigma1_sq, sigma2_sq)
        rows.append(
            {
                "mu1": mu1,
                "d_exact": d_exact,
                "d_asymptotic": d_asymptotic(mu1, ratio),
                "entropy_bits": entropy,
                "purity": purity,
            }
        )
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
    initial = EllipseShape(math.sqrt(max(s1, s2)), math.sqrt(min(s1, s2)),
                           0.0 if s1 >= s2 else 0.5 * math.pi)
    if math.isinf(max(initial.area, exact.area)):
        raise ValueError(f"ellipse area overflows, got sigma1_sq={s1}, sigma2_sq={s2}")
    sigma1, sigma2 = math.sqrt(s1), math.sqrt(s2)
    approx = approx_final_ellipse(mu.mu1, sigma1, sigma2)
    if sigma1 / sigma2 < 10.0:
        print(f"warning: width ratio {sigma1 / sigma2:.3g} is below 10; the wide-packet "
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
        "boundary_initial": [[float(x), float(y)] for x, y in initial.boundary_points(cfg.points)],
        "boundary_final": [[float(x), float(y)] for x, y in exact.boundary_points(cfg.points)],
    }


def run_transient(cfg: SweepConfig) -> dict:
    """Entropy along a time grid, with the analytic asymptote for reference.

    The default window runs from 0 to 2.5 times the estimated collision
    time (packet separation over the relative velocity).
    """
    params = cfg.params
    reduced_mass = params.mass1 * params.mass2
    t_collision = (params.q1 + params.q2 - params.core_radius) * reduced_mass / params.momentum
    t_start = 0.0 if cfg.t_start is None else cfg.t_start
    t_stop = 2.5 * t_collision if cfg.t_stop is None else cfg.t_stop
    if not t_stop > t_start:
        raise ValueError("t_stop must exceed t_start")
    times = np.linspace(t_start, t_stop, cfg.points)
    entropies = transient_curve(params, times, grid_n=cfg.grid_n, coverage=cfg.coverage)
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
        "coverage": cfg.coverage,
        "analytic_entropy_bits": asymptote,
        "estimated_collision_time": t_collision,
    }
    rows = [{"time": t, "entropy_bits": s} for t, s in zip(times.tolist(), entropies)]
    return {"meta": meta, "rows": rows}


def run_oracle_check(cfg: SweepConfig) -> dict:
    """Compare the Schmidt entropy of the sampled outgoing state with the
    closed form; passes when they agree within 1e-3 bits."""
    params = cfg.params
    _, analytic, _ = _entanglement(params.fractions, params.sigma1_sq, params.sigma2_sq)
    wave = reflected_state(params, grid_n=cfg.grid_n, coverage=cfg.coverage)
    schmidt = schmidt_entropy(wave)
    difference = abs(schmidt - analytic)
    return {
        "analytic_entropy_bits": analytic,
        "schmidt_entropy_bits": schmidt,
        "abs_difference_bits": difference,
        "grid_n": cfg.grid_n,
        "passed": bool(difference <= ORACLE_TOL_BITS),
    }


_RUNNERS = {
    "single": run_single,
    "sweep-mu": run_sweep_mu,
    "ellipse": run_ellipse,
    "transient": run_transient,
    "oracle-check": run_oracle_check,
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
    """The CLI parser, and the type of each scenario and numerics key,
    which configuration files share with the flags."""
    parser = argparse.ArgumentParser(
        prog="hcscatter",
        usage="%(prog)s [-h] mode [options]",
        description="Entanglement from 1D hard-core scattering of two Gaussian packets.\n\n"
        "modes:\n" + "\n".join(f"  {mode:<14}{text}" for mode, text in MODES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", choices=MODES, metavar="mode", help="one of the modes above")
    group = parser.add_argument_group("scenario")
    group.add_argument("--mu1", type=float, help="mass fraction of particle 1")
    group.add_argument("--mass1", type=float, help="raw mass of particle 1")
    group.add_argument("--mass2", type=float, help="raw mass of particle 2")
    group.add_argument("--sigma1-sq", type=float, dest="sigma1_sq",
                       help="squared width of packet 1")
    group.add_argument("--sigma2-sq", type=float, dest="sigma2_sq",
                       help="squared width of packet 2 (default 1)")
    group.add_argument("--ratio", type=float,
                       help="width ratio sigma1/sigma2 (alternative to --sigma1-sq)")
    group.add_argument("--core-radius", type=float, dest="core_radius",
                       help="hard-core radius a")
    group.add_argument("--momentum", type=float, help="approach momentum K")
    group.add_argument("--q1", type=float, help="initial center of packet 1 (> a)")
    group.add_argument("--q2", type=float, help="initial center distance of packet 2 (> a)")
    numerics = parser.add_argument_group("numerics and output")
    numerics.add_argument("--grid-n", type=int, dest="grid_n",
                          help="grid points per axis (default 512)")
    numerics.add_argument("--coverage", type=float,
                          help="grid half-width in density standard deviations (default 6)")
    numerics.add_argument("--points", type=int,
                          help="number of sweep/time/boundary points")
    numerics.add_argument("--t-start", type=float, dest="t_start", help="first time point")
    numerics.add_argument("--t-stop", type=float, dest="t_stop", help="last time point")
    numerics.add_argument("--out", help="output path (default: stdout)")
    numerics.add_argument("--format", choices=("csv", "json"), dest="format",
                          help="output format (default csv)")
    numerics.add_argument("--config", help="flat key=value configuration file; "
                                           "explicit flags win")
    types = {action.dest: action.type or str for action in parser._actions
             if action.dest not in ("help", "mode", "config")}
    return parser, types


def main(argv=None) -> int:
    parser, types = _build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in types and v is not None}
    try:
        file_values = {} if args.config is None else parse_config_file(args.config, types)
        cfg = _resolve(args.mode, flags, file_values)
        record = _RUNNERS[cfg.mode](cfg)
        _emit(record, cfg)
    except ValueError as exc:  # CoverageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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
