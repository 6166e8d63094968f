"""Independent references and per-op output checks.

Every reference here is computed by the benchmark, never by the program
under test, and outside the timed section of an op:

* closed form: 60-digit ``mpmath`` values of d, the entropy and the purity
  from ``d^2 - 1/4 = dmu^2 (mu1 s1 - mu2 s2)^2 / (s1 s2)``, a form with no
  cancellation near the zero-entanglement loci;
* ellipse: the outgoing quadratic form L^T diag(1/s1, 1/s2) L built from
  the bounce's mixing matrix L, and area preservation (|det L| = 1);
* oracle: the 60-digit closed-form entropy;
* transient: the product state at t = 0, the 60-digit asymptote, and the
  peak-entropy time point re-sampled with the public ``collision_state``
  and decomposed with the benchmark's own full ``numpy`` SVD.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

# Absolute entropy gate of the closed form against the 60-digit reference.
CLOSED_FORM_BITS = 1e-9
# Relative gate on d and on the purity; both are well-conditioned in the
# inputs (float64 rounding puts them within a few ulp).
CLOSED_FORM_REL = 1e-12
# Residual |x^T M x - 1| allowed for initial boundary points, per unit of
# the form's condition number.
ELLIPSE_RESIDUAL = 1e-13
# The CLI's own oracle tolerance: Schmidt entropy against the closed form.
ORACLE_BITS = 1e-3
# A transient starts from a product state.
PRODUCT_STATE_BITS = 1e-6
# The last transient row sits at the analytic asymptote.
ASYMPTOTE_BITS = 1e-3
# The reported peak entropy against the benchmark's own full SVD of the
# same sampled state.  A Schmidt solver that drops weight mid-bounce
# misses ~3e-4 bits; both routes agree to ~1e-12 when nothing is dropped.
PEAK_RESAMPLE_BITS = 1e-6
# Schmidt weights below this are noise, as in the program's entropy.
WEIGHT_FLOOR = 1e-14

_MP = mpmath.MPContext()
_MP.dps = 60


@dataclass(frozen=True)
class CliResult:
    """Exit code and captured streams of one ``hcscatter.cli.main`` call."""

    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one op.

    ``err_bits`` is the largest absolute entropy error against the
    reference; ``rel_err`` the largest relative one and
    ``ellipse_residual`` the final boundary's residual (closed form only).
    """

    ok: bool
    err_bits: float = 0.0
    rel_err: float = 0.0
    reason: str = ""
    ellipse_residual: float = 0.0


def fail(reason: str) -> Verdict:
    return Verdict(False, math.inf, math.inf, reason, math.inf)


# ---------------------------------------------------------------- references

def closed_form_references(mu1s, sigma1_sq: float, sigma2_sq: float) -> np.ndarray:
    """Rows (d, entropy in bits, purity) at 60 digits, rounded to float64,
    one column per mu1.

    ``mu2 = 1 - mu1`` is taken exactly, so each reference is the answer for
    the float the program was given.
    """
    mp = _MP
    s1, s2 = mp.mpf(sigma1_sq), mp.mpf(sigma2_sq)
    inverse = 1 / (s1 * s2)
    half, quarter = mp.mpf(0.5), mp.mpf(0.25)
    out = np.empty((3, len(mu1s)))
    for i, mu1 in enumerate(mu1s):
        m1 = mp.mpf(float(mu1))
        m2 = 1 - m1
        g = (m1 - m2) * (m1 * s1 - m2 * s2)
        excess = g * g * inverse  # d^2 - 1/4
        d = mp.sqrt(excess + quarter)
        up = d + half
        above = excess / up  # d - 1/2, free of cancellation
        entropy = up * mp.ln(up)
        if above:
            entropy -= above * mp.ln(above)
        out[:, i] = float(d), float(entropy / mp.ln2), float(half / d)
    return out


def sweep_grid(points: int) -> np.ndarray:
    """The mu1 grid ``sweep-mu`` documents: uniform over [0.01, 0.99]."""
    return np.linspace(0.01, 0.99, points)


def ellipse_form(mu1: float, sigma1_sq: float, sigma2_sq: float) -> np.ndarray:
    """Outgoing form L^T diag(1/s1, 1/s2) L, L the bounce's mixing matrix."""
    mu2 = 1.0 - mu1
    dm = mu1 - mu2
    mixing = np.array([[dm, 2.0 * mu2], [2.0 * mu1, -dm]])
    return mixing.T @ np.diag([1.0 / sigma1_sq, 1.0 / sigma2_sq]) @ mixing


def full_svd_entropy(amplitudes: np.ndarray, cell: float) -> tuple[float, int]:
    """Entropy in bits and retained rank from a full SVD of a sampled state."""
    singular = np.linalg.svd(amplitudes, compute_uv=False)
    weights = singular**2 * cell
    weights = weights / weights.sum()
    kept = weights[weights > WEIGHT_FLOOR]
    return max(0.0, float(-(kept * np.log2(kept)).sum())), int(kept.size)


# ------------------------------------------------------------------ parsing

def parse_output(text: str, fmt: str) -> tuple[dict, dict]:
    """Decode CLI output into (scalar record, table columns).

    Records without rows (single, ellipse, oracle-check) come back as
    (record, {}); CSV ellipse output keeps its boundary points as columns
    ``ellipse``, ``idx``, ``x1``, ``x2``.  Numeric columns are float arrays.
    """
    if fmt == "json":
        record = json.loads(text)
        if "rows" not in record:
            return record, {}
        rows = record["rows"]
        return record["meta"], {k: _column([r[k] for r in rows]) for k in (rows[0] if rows else ())}
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = _scalar(value)
        elif line:
            body.append(line)
    header = body[0].split(",")
    cells = [line.split(",") for line in body[1:]]
    if not meta and len(cells) == 1:
        return {k: _scalar(v) for k, v in zip(header, cells[0])}, {}
    return meta, {k: _column(col) for k, col in zip(header, zip(*cells))}


def _column(values) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except ValueError:
        return np.array(values)


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def entropy_errors(got, want) -> tuple[float, float]:
    """Largest absolute and relative error of entropy values.

    Exact-zero references only count towards the absolute error.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    if not np.isfinite(err).all():
        return math.inf, math.inf
    nonzero = want != 0.0
    rel = err[nonzero] / np.abs(want[nonzero])
    return float(err.max(initial=0.0)), float(rel.max(initial=0.0))


# ------------------------------------------------------------------- checks

def check_closed_form_values(d, entropy, purity, ref) -> Verdict:
    """Compare d, entropy and purity columns with reference columns."""
    d, purity = np.asarray(d, dtype=float), np.asarray(purity, dtype=float)
    ref_d, ref_s, ref_p = (np.asarray(c, dtype=float) for c in ref)
    err, rel = entropy_errors(entropy, ref_s)
    if not err <= CLOSED_FORM_BITS:
        return Verdict(False, err, rel, f"entropy off by {err:.3e} bits")
    for name, got, want in (("d_exact", d, ref_d), ("purity", purity, ref_p)):
        worst = float(np.max(np.abs(got - want) / want))
        if not worst <= CLOSED_FORM_REL:
            return Verdict(False, err, rel, f"{name} off by {worst:.3e} relative")
    return Verdict(True, err, rel)


def check_ellipse(record: dict, table: dict, mu1: float, s1: float, s2: float, points: int) -> Verdict:
    """Point counts, the initial boundary on its form and both areas.

    The final boundary's residual on the reference form is returned, not
    gated: near the mu1 s1 = mu2 s2 locus the program's tilt angle loses
    accuracy to cancellation (residuals up to ~4e2 at mu1 ~ 1e-6), and the
    benchmark reports that loss as a number, like the entropy's.
    """
    if table:  # CSV: one row per boundary point
        groups = {
            name: np.column_stack([table["x1"], table["x2"]])[table["ellipse"] == name]
            for name in ("initial", "final")
        }
    else:
        groups = {name: np.array(record[f"boundary_{name}"], dtype=float) for name in ("initial", "final")}
    for name, pts in groups.items():
        if pts.shape != (points, 2):
            return fail(f"{name} boundary has shape {pts.shape}, want ({points}, 2)")
    initial = np.diag([1.0 / s1, 1.0 / s2])
    residual = _form_residual(groups["initial"], initial)
    if not residual <= ELLIPSE_RESIDUAL * np.linalg.cond(initial):
        return fail(f"initial boundary point off its ellipse by {residual:.3e}")
    area = math.pi * math.sqrt(s1 * s2)
    for key in ("initial_area", "final_area"):
        if not abs(record[key] - area) <= 1e-9 * area:
            return fail(f"{key} {record[key]!r} differs from pi*sigma1*sigma2 = {area!r}")
    final = _form_residual(groups["final"], ellipse_form(mu1, s1, s2))
    return Verdict(True, ellipse_residual=final)


def _form_residual(points: np.ndarray, form: np.ndarray) -> float:
    """Largest |x^T M x - 1| over the points."""
    return float(np.abs(np.einsum("ij,jk,ik->i", points, form, points) - 1.0).max())


def check_oracle(record: dict, reference_bits: float, grid_n: int) -> Verdict:
    if record.get("grid_n") != grid_n:
        return fail(f"grid_n {record.get('grid_n')!r}, want {grid_n}")
    if not abs(record["analytic_entropy_bits"] - reference_bits) <= CLOSED_FORM_BITS:
        return fail("analytic entropy disagrees with the 60-digit closed form")
    err = abs(record["schmidt_entropy_bits"] - reference_bits)
    if not err <= ORACLE_BITS:
        return Verdict(False, err, reason=f"Schmidt entropy off by {err:.3e} bits")
    if record["passed"] is not True:
        return Verdict(False, err, reason="record says the oracle check failed")
    return Verdict(True, err)


def check_transient(meta: dict, table: dict, asymptote_bits: float, points: int, resample) -> Verdict:
    """Product state first, asymptote last, peak re-sampled independently.

    ``resample(t)`` returns the benchmark's own entropy of the collision
    state at time t.
    """
    times, entropies = table.get("time", ()), table.get("entropy_bits", ())
    if len(times) != points or len(entropies) != points:
        return fail(f"{len(times)} rows, want {points}")
    if not np.all(np.diff(times) > 0):
        return fail("times are not strictly ascending")
    if not abs(meta["analytic_entropy_bits"] - asymptote_bits) <= CLOSED_FORM_BITS:
        return fail("analytic asymptote disagrees with the 60-digit closed form")
    first = abs(entropies[0])
    if not first <= PRODUCT_STATE_BITS:
        return Verdict(False, first, reason=f"first row is not a product state ({first:.3e} bits)")
    last = abs(entropies[-1] - asymptote_bits)
    if not last <= ASYMPTOTE_BITS:
        return Verdict(False, last, reason=f"last row misses the asymptote by {last:.3e} bits")
    peak = int(np.argmax(entropies))
    drift = abs(entropies[peak] - resample(float(times[peak])))
    err = max(first, last, drift)
    if not drift <= PEAK_RESAMPLE_BITS:
        return Verdict(False, err, reason=f"peak entropy off the full SVD by {drift:.3e} bits")
    return Verdict(True, err)
