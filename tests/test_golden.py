"""Pinned CLI outputs.

``golden/cases.json`` maps each case name to its argv, exit code and
stderr; ``golden/<case>.txt`` holds the stdout the CLI printed for it.
Stdout must match byte for byte, except for the values that come out of
a LAPACK singular-value decomposition, which are compared within 1e-12
bits so that a different BLAS build does not fail the test.
"""

import json
import re
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    case = CASES[name]
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
    assert main(argv) == case["exit"]
    captured = capsys.readouterr()
    assert captured.err.replace(str(GOLDEN), "{golden}") == case["stderr"]
    expected = (GOLDEN / f"{name}.txt").read_text()
    actual_text, actual_values = split_lapack_values(captured.out, argv[0])
    expected_text, expected_values = split_lapack_values(expected, argv[0])
    assert actual_text == expected_text
    assert len(actual_values) == len(expected_values)
    for got, want in zip(actual_values, expected_values):
        assert abs(got - want) <= LAPACK_TOL_BITS
