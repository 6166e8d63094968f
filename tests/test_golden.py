"""Pinned CLI outputs.

``golden/cases.json`` maps each case name to its argv, exit code and
stderr; ``golden/<case>.txt`` holds the stdout the CLI printed for it.
Stdout must match byte for byte, except for the values that come out of
LAPACK (a singular-value or Hermitian eigenvalue decomposition), which
are compared within 1e-12 bits so that a different BLAS build does not
fail the test.

Run as a script, ``python tests/test_golden.py`` replays every case
through the installed ``hcscatter`` command, each in a fresh process,
with the same comparison.
"""

import json
import re
import subprocess
from pathlib import Path

import pytest

from hcscatter.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
LAPACK_KEYS = {
    "transient": ("entropy_bits",),
    "oracle-check": ("schmidt_entropy_bits", "abs_difference_bits"),
}
LAPACK_TOL_BITS = 1e-12


def split_lapack_values(text, mode):
    """Replace LAPACK-derived values by a placeholder; return the masked
    text and the values in order of appearance."""
    keys = LAPACK_KEYS.get(mode, ())
    values = []
    if not keys:
        return text, values
    if text.startswith("{"):
        pattern = re.compile(r'("(?:%s)": )([^,\n]+)' % "|".join(keys))

        def mask(match):
            values.append(float(match[2]))
            return match[1] + "<lapack>"

        return pattern.sub(mask, text), values
    lines = text.split("\n")
    columns = None
    for i, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if columns is None:
            columns = [j for j, cell in enumerate(cells) if cell in keys]
            continue
        for j in columns:
            values.append(float(cells[j]))
            cells[j] = "<lapack>"
        lines[i] = ",".join(cells)
    return "\n".join(lines), values


def argv_of(name):
    return [arg.replace("{golden}", str(GOLDEN)) for arg in CASES[name]["argv"]]


def check_run(name, exit_code, out, err):
    """Assert that one run of case ``name`` gave its pinned exit code,
    stderr and stdout."""
    case = CASES[name]
    assert exit_code == case["exit"], name
    assert err.replace(str(GOLDEN), "{golden}") == case["stderr"], name
    mode = case["argv"][0]
    expected = (GOLDEN / f"{name}.txt").read_text()
    actual_text, actual_values = split_lapack_values(out, mode)
    expected_text, expected_values = split_lapack_values(expected, mode)
    assert actual_text == expected_text, name
    assert len(actual_values) == len(expected_values), name
    for got, want in zip(actual_values, expected_values):
        assert abs(got - want) <= LAPACK_TOL_BITS, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    exit_code = main(argv_of(name))
    captured = capsys.readouterr()
    check_run(name, exit_code, captured.out, captured.err)


if __name__ == "__main__":
    for name in sorted(CASES):
        done = subprocess.run(["hcscatter", *argv_of(name)], capture_output=True, text=True)
        check_run(name, done.returncode, done.stdout, done.stderr)
    print(f"{len(CASES)} golden cases replayed through the installed hcscatter")
