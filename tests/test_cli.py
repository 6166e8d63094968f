import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcscatter
from hcscatter.cli import _build_parser, _linspace, _resolve, main

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def run_csv_rows(path):
    """Split a CSV output file into ('#' metadata dict, header, data rows)."""
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
NARROW_WARNING = (
    "warning: width ratio 1.5 is below 10; the wide-packet approximation degrades\n"
)
# Two normal widths whose ratio squared is not a normal float, on every flag path.
EXTREME_RATIOS = [
    ["--sigma1-sq", "1e300", "--sigma2-sq", "1e-300"],
    ["--sigma1-sq", "1e-300", "--sigma2-sq", "1e300"],
    ["--ratio", "1e-200", "--sigma2-sq", "1e300"],
]


class TestParser:
    def test_help_describes_every_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for line in (
            "single closed-form evaluation of one scenario",
            "sweep-mu d, entropy and purity over a mu1 grid at fixed width ratio",
            "ellipse outgoing-ellipse geometry with boundary points",
            "transient entropy along a time grid from the image solution",
            "oracle-check Schmidt entropy of the sampled state vs the closed form",
        ):
            assert line in text

    def test_help_matches_golden(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / "help.txt").read_text()

    def test_golden_argv_parse_flag_by_flag(self):
        # Every mode takes every flag, before or after the mode, into the
        # flag's key with the flag's type.
        parser, types = _build_parser()
        for case in GOLDEN_CASES.values():
            mode, *flags = case["argv"]
            args = parser.parse_args([mode, *flags])
            assert args == parser.parse_args([*flags, mode])
            assert args.mode == mode
            given = dict(zip(flags[::2], flags[1::2]))
            assert args.config == given.pop("--config", None)
            for key, type_ in types.items():
                value = given.pop("--" + key.replace("_", "-"), None)
                assert getattr(args, key) == (None if value is None else type_(value))
            assert not given


class TestSingle:
    def test_equal_masses_report(self, tmp_path, capsys):
        out = tmp_path / "single.json"
        code = main(["single", "--mass1", "2", "--mass2", "2", "--ratio", "10",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["mu1"] == 0.5
        assert record["d_exact"] == 0.5
        assert record["entropy_bits"] == 0.0
        assert record["classification"] == "EqualMass"

    def test_equal_masses_whose_sum_overflows(self, capsys):
        assert main(["single", "--mass1", "1e308", "--mass2", "1e308", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mu1"] == record["mu2"] == 0.5
        assert record["entropy_bits"] == 0.0
        assert record["classification"] == "EqualMass"

    def test_mu1_next_to_one_half_keeps_its_delta(self, capsys):
        # mu1 = 1/2 - 2**-54 has delta = 2 mu1 - 1 = -2**-53 exactly; from
        # the rounded pair (mu1, 1 - mu1) it came out as (mu1 - 1/2) / 1,
        # half of that, and the entropy a quarter of the 400-digit value.
        argv = ["single", "--mu1", "0.49999999999999994", "--sigma1-sq", "3",
                "--sigma2-sq", "7", "--format", "json"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["entropy_bits"] == pytest.approx(2.5787067665788715e-31, rel=1e-12)

    def test_reference_case_csv(self, tmp_path):
        out = tmp_path / "single.csv"
        assert main(["single", "--mu1", "0.25", "--ratio", "10", "--out", str(out)]) == 0
        _, header, rows = run_csv_rows(out)
        record = dict(zip(header, rows[0]))
        assert float(record["d_exact"]) == pytest.approx(1.3115, abs=1e-4)
        assert float(record["d_asymptotic"]) == 1.25
        assert record["classification"] == "None"

    def test_zero_width_is_a_validation_error(self, capsys):
        code = main(["single", "--mu1", "0.25", "--sigma1-sq", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "width" in err and "positive" in err

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["single", "--mu1", "0.25", "--ratio", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mu1,")

    def test_conflicting_width_flags(self, capsys):
        code = main(["single", "--ratio", "10", "--sigma1-sq", "4"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_conflicting_mass_flags(self, capsys):
        code = main(["single", "--mu1", "0.3", "--mass1", "1", "--mass2", "2"])
        assert code == 2

    def test_lone_mass_flag(self, capsys):
        assert main(["single", "--mass1", "1"]) == 2

    @pytest.mark.parametrize("mode", ["single", "ellipse"])
    def test_tiny_widths_do_not_meet_the_core(self, mode, capsys):
        # The closed form uses no centers, so the default core radius
        # changes nothing.
        argv = [mode, "--sigma1-sq", "1e-40", "--sigma2-sq", "1e-40"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main([*argv, "--core-radius", "0"]) == 0
        assert capsys.readouterr() == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--ratio", "nan"],
            ["single", "--ratio", "inf"],
            ["single", "--sigma2-sq", "inf"],
            ["single", "--core-radius", "nan"],
            ["single", "--momentum", "nan"],
            ["single", "--mass1", "1", "--mass2", "inf"],
            ["sweep-mu", "--ratio", "nan"],
            ["ellipse", "--sigma1-sq", "nan"],
            ["single", "--ratio", "-10"],
            ["ellipse", "--ratio", "1e200"],
            ["sweep-mu", "--ratio", "1e300"],
        ],
    )
    def test_non_finite_input_is_a_validation_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be finite" in captured.err


    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    @pytest.mark.parametrize(
        "widths",
        [
            ["--ratio", "1e-160"],
            ["--sigma1-sq", "1e-310"],
            ["--sigma1-sq", "1e300", "--sigma2-sq", "1e-320"],
            ["--sigma2-sq", "1e-320"],
        ],
    )
    def test_width_ratio_out_of_range_is_a_validation_error(self, mode, widths, capsys):
        # Every flag path to the widths is checked, not only --ratio:
        # --ratio 1e-160 makes a subnormal sigma1_sq.
        assert main([mode, *widths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: widths must be normal floats, got sigma1_sq=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    @pytest.mark.parametrize("widths", EXTREME_RATIOS)
    def test_any_two_normal_widths_run(self, mode, widths, capsys):
        assert main([mode, *widths, "--points", "3", "--format", "json"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out, parse_constant=lambda name: pytest.fail(f"{name} printed"))
        assert all(line.startswith("warning: ") for line in captured.err.splitlines())

    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    @pytest.mark.parametrize("widths", EXTREME_RATIOS)
    def test_no_grid_holds_an_extreme_width_ratio(self, mode, widths, capsys):
        # The closed form accepts the widths; the grid cannot sample them.
        assert main([mode, *widths, "--grid-n", "64", "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "n=64" in captured.err

    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    @pytest.mark.parametrize("widths", [["--ratio", "1e-300"],
                                        ["--ratio", "1e-170", "--sigma2-sq", "1e-5"]])
    def test_ratio_whose_square_underflows_names_the_ratio(self, mode, widths, capsys):
        # ratio**2 * sigma2_sq rounds to 0; the error is about the ratio
        # given, not a zero sigma1_sq that was never given.
        assert main([mode, *widths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: width ratio {float(widths[1])!r} is too small: "
                                "ratio**2 * sigma2_sq underflows\n")

    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sigma2_with_a_ratio_names_sigma2(self, mode, value, capsys):
        # sigma1_sq = ratio**2 * sigma2_sq is never given; the bad input is.
        assert main([mode, "--ratio", "10", "--sigma2-sq", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sigma2_sq must be finite, got {value}\n"

    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    def test_ratio_whose_product_overflows_names_the_ratio(self, mode, capsys):
        assert main([mode, "--ratio", "1e5", "--sigma2-sq", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: width ratio 100000.0 is too large: "
                                "ratio**2 * sigma2_sq overflows\n")


class TestSweepMu:
    def test_default_grid_reproduces_known_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-mu", "--out", str(out)]) == 0
        meta, header, rows = run_csv_rows(out)
        assert header == ["mu1", "d_exact", "d_asymptotic", "entropy_bits", "purity"]
        assert len(rows) == 99
        table = {round(float(r[0]), 6): dict(zip(header, map(float, r))) for r in rows}
        assert table[0.25]["d_asymptotic"] == pytest.approx(1.25, abs=1e-12)
        assert float(meta["d_asymptotic_at_mu1_1"]) == 10.0
        for r in rows:
            record = dict(zip(header, map(float, r)))
            assert record["d_exact"] >= 0.5
            assert record["entropy_bits"] >= 0.0
            assert 0.0 < record["purity"] <= 1.0

    def test_too_few_points(self, capsys):
        assert main(["sweep-mu", "--points", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["sweep-mu", "--points", "25", "--out", str(first)])
        main(["sweep-mu", "--points", "25", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_json_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(["sweep-mu", "--points", "11", "--format", "json", "--out", str(out)])
        record = json.loads(out.read_text())
        from hcscatter.covariance import MassFractions, d_minus_half

        for row in record["rows"]:
            mu = MassFractions(row["mu1"])
            assert row["d_exact"] == 0.5 + d_minus_half(mu, record["meta"]["sigma1_sq"],
                                                        record["meta"]["sigma2_sq"])


class TestEllipse:
    def test_boundary_points_satisfy_the_form(self, tmp_path):
        out = tmp_path / "ellipse.csv"
        assert main(["ellipse", "--mu1", "0.8", "--ratio", "20", "--out", str(out)]) == 0
        meta, header, rows = run_csv_rows(out)
        assert header == ["ellipse", "idx", "x1", "x2"]
        from hcscatter.covariance import MassFractions
        from hcscatter.ellipse import scattered_form
        from oracles import form_matrix

        form = form_matrix(scattered_form(
            MassFractions(float(meta["mu1"])),
            float(meta["sigma1_sq"]),
            float(meta["sigma2_sq"]),
        ))
        final = np.array([[float(r[2]), float(r[3])] for r in rows if r[0] == "final"])
        assert len(final) == 64
        values = np.einsum("ni,ij,nj->n", final, form, final)
        assert np.max(np.abs(values - 1.0)) <= 1e-10

    def test_areas_agree(self, tmp_path):
        out = tmp_path / "ellipse.json"
        main(["ellipse", "--mu1", "0.6", "--ratio", "15", "--format", "json",
              "--out", str(out)])
        record = json.loads(out.read_text())
        assert record["final_area"] == pytest.approx(record["initial_area"], rel=1e-15)

    @pytest.mark.parametrize(
        "widths",
        [
            ["--ratio", "1e9"],
            ["--ratio", "1e154"],
            ["--sigma1-sq", "1e-150", "--sigma2-sq", "1e150"],
        ],
    )
    def test_extreme_widths_keep_the_area(self, widths, capsys):
        assert main(["ellipse", *widths, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["final_area"] == pytest.approx(record["initial_area"], rel=1e-15)

    def test_overflowing_area_is_a_validation_error(self, capsys):
        assert main(["ellipse", "--sigma1-sq", "1.7e308", "--sigma2-sq", "1.7e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ellipse area overflows, got sigma1_sq=1.7e+308, sigma2_sq=1.7e+308\n"
        )

    def test_narrow_width_ratio(self, tmp_path, capsys):
        # The wide-packet approximation swaps its axes here; the exact
        # ellipse is unaffected.
        out = tmp_path / "ellipse.json"
        code = main(["ellipse", "--ratio", "1.5", "--format", "json", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == NARROW_WARNING
        record = json.loads(out.read_text())
        approx_area = math.pi * record["approx_semi_major"] * record["approx_semi_minor"]
        assert approx_area == pytest.approx(math.pi * 1.5, rel=1e-14)
        assert record["approx_semi_major"] >= record["approx_semi_minor"]
        assert record["final_area"] == pytest.approx(record["initial_area"], rel=1e-15)

    def test_warning_follows_the_width_ratio(self, capsys):
        # sigma1_sq = ratio**2 * sigma2_sq is rounded, so sqrt(s1) / sqrt(s2)
        # can fall just below a ratio of 10 that width_ratio keeps.
        split = 0
        for ratio in (math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, 20.0)):
            for sigma2_sq in [8.371, *np.linspace(0.1, 100.0, 200).tolist()]:
                flags = {"ratio": ratio, "sigma2_sq": sigma2_sq}
                params = _resolve("ellipse", flags, {}).params
                assert main(["ellipse", "--ratio", repr(ratio), "--sigma2-sq", repr(sigma2_sq),
                             "--points", "1"]) == 0
                assert (capsys.readouterr().err != "") == (params.width_ratio < 10.0), flags
                sigma1, sigma2 = math.sqrt(params.sigma1_sq), math.sqrt(params.sigma2_sq)
                split += sigma1 / sigma2 < 10.0 <= params.width_ratio
        assert split > 0

    def test_warning_is_the_same_line_on_every_call(self, capsys):
        errors = []
        for _ in range(2):
            assert main(["ellipse", "--ratio", "1.5", "--points", "4"]) == 0
            errors.append(capsys.readouterr().err)
        assert errors == [NARROW_WARNING, NARROW_WARNING]

    def test_heavy_wide_packet_angle(self, tmp_path):
        out = tmp_path / "ellipse.json"
        main(["ellipse", "--mu1", "0.99", "--ratio", "1000", "--format", "json",
              "--out", str(out)])
        record = json.loads(out.read_text())
        assert math.degrees(record["exact_angle_rad"]) == pytest.approx(63.43, abs=0.5)


class TestTransient:
    def test_empty_time_grid_is_rejected(self, capsys):
        assert main(["transient", "--points", "0"]) == 2

    def test_short_run_has_sane_curve(self, tmp_path):
        out = tmp_path / "transient.csv"
        code = main([
            "transient", "--mass1", "1", "--mass2", "1", "--sigma1-sq", "1",
            "--sigma2-sq", "1", "--momentum", "4", "--points", "7",
            "--t-stop", "5", "--grid-n", "128", "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = run_csv_rows(out)
        assert header == ["time", "entropy_bits"]
        assert len(rows) == 7
        assert float(meta["analytic_entropy_bits"]) == 0.0
        entropies = [float(r[1]) for r in rows]
        assert all(s >= 0.0 for s in entropies)
        assert max(entropies) > entropies[-1]

    def test_bad_window(self, capsys):
        assert main(["transient", "--t-start", "2", "--t-stop", "1"]) == 2
        assert capsys.readouterr().err == "error: t_stop must exceed t_start\n"

    def test_window_whose_step_underflows_repeats_a_time(self, capsys):
        # The step 5e-324 / 2 rounds to 0, so the first two times coincide.
        argv = ["transient", "--t-stop", "5e-324", "--points", "3", "--grid-n", "64"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: times must be strictly ascending\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["transient", "--q1", "1e308", "--q2", "1e308"],
            ["transient", "--core-radius", "1e308"],
            ["transient", "--momentum", "1e-160"],
            ["transient", "--q1", "1e200", "--q2", "1e200"],
            ["transient", "--sigma1-sq", "1e307", "--sigma2-sq", "1e306"],
            ["oracle-check", "--sigma1-sq", "1e307", "--sigma2-sq", "1e306"],
        ],
    )
    def test_overflowing_window_or_sampling_is_a_validation_error(self, argv, capsys):
        # An infinite collision time, or packets whose exponents overflow on
        # the grid, end in one error line instead of numpy warnings.
        assert main([*argv, "--grid-n", "64", "--points", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["single", "sweep-mu", "ellipse"])
    def test_modes_without_times_ignore_the_window(self, mode, capsys):
        argv = [mode, "--ratio", "10", "--points", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--t-start", "2", "--t-stop", "1"]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("masses", [["--mu1", "0.25"], ["--mass1", "1", "--mass2", "3"]])
    def test_default_masses(self, masses, capsys):
        argv = ["transient", "--grid-n", "64", "--points", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, *masses]) == 0
        assert capsys.readouterr().out == default

    # At mu1 0.3, separation * m1 * m2 / K would be one ulp below the meta's 3.38625.
    @pytest.mark.parametrize("mu1", [0.25, 0.3])
    def test_meta_reports_the_collision_time(self, mu1, capsys):
        argv = ["transient", "--mu1", repr(mu1), "--grid-n", "64", "--points", "2",
                "--format", "json"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        t_c = _resolve("transient", {"mu1": mu1}, {}).params.collision_time
        assert record["meta"]["estimated_collision_time"] == t_c
        assert record["rows"][-1]["time"] == 2.5 * t_c

    def test_default_run_converges_to_asymptote(self, tmp_path):
        # Default scenario is asymmetric; the final row must sit on the
        # analytic asymptote reported in the metadata.
        out = tmp_path / "transient.csv"
        assert main(["transient", "--grid-n", "256", "--out", str(out)]) == 0
        meta, _, rows = run_csv_rows(out)
        final = float(rows[-1][1])
        assert abs(final - float(meta["analytic_entropy_bits"])) <= 2e-2


class TestOracleCheck:
    def test_reference_case_passes(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--format", "json", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["passed"] is True
        assert record["abs_difference_bits"] <= 1e-3
        assert record["grid_n"] == 512

    def test_equal_mass_case_passes(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--mass1", "1", "--mass2", "1",
                     "--grid-n", "256", "--format", "json", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["analytic_entropy_bits"] == 0.0
        assert record["schmidt_entropy_bits"] <= 1e-3
        assert record["passed"] is True

    def test_svd_input_is_real(self, monkeypatch, capsys):
        # The reflected state at t = 0 is sampled without its separable
        # plane wave, so LAPACK gets a float64 matrix.
        dtypes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert main(["oracle-check", "--grid-n", "128"]) == 0
        assert dtypes == [np.float64]

    def test_starved_grid_is_a_coverage_error(self, capsys):
        # At width ratio 100 the reflected state is a ridge narrower than
        # the 64-point spacing, so the grid norm misses 1 by far.
        code = main(["oracle-check", "--ratio", "100", "--grid-n", "64"])
        assert code == 2
        err = capsys.readouterr().err
        assert "deficit" in err and "outside the 1% budget" in err

    def test_coverage_error_keeps_a_huge_norm_short(self, capsys):
        # The grid norm here is about 1e147; spelled out with a fixed
        # number of decimals it took 300 digits.
        argv = ["oracle-check", "--sigma1-sq", "1e300", "--sigma2-sq", "1", "--grid-n", "64"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid norm of the reflected state is ")
        assert err.count("\n") == 1 and len(err) < 250
        norm = err.split(" is ", 1)[1].split(" ", 1)[0]
        assert "e+" in norm and len(norm) <= 12

    def test_coverage_flag_is_gone(self, capsys):
        # The grid box is fixed at six standard deviations; --grid-n alone
        # sets the resolution.
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle-check", "--coverage", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --coverage 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    @pytest.mark.parametrize("coverage", ["nan", "inf"])
    def test_non_finite_coverage_is_a_validation_error(self, mode, coverage, capsys):
        # Without the flag these values cannot reach a grid: still exit 2,
        # nothing on stdout.
        with pytest.raises(SystemExit) as excinfo:
            main([mode, "--grid-n", "64", "--points", "1", "--coverage", coverage])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --coverage {coverage}" in captured.err

    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    def test_tiny_widths_are_a_validation_error(self, mode, capsys):
        # No grid resolves packets 1e-20 wide around centers near 0.5.
        argv = [mode, "--sigma1-sq", "1e-40", "--sigma2-sq", "1e-40", "--grid-n", "64",
                "--points", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "n=64" in captured.err

    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    @pytest.mark.parametrize("momentum", ["1e155", "1e300"])
    def test_overflowing_momentum_is_a_validation_error(self, mode, momentum, capsys):
        argv = [mode, "--momentum", momentum, "--grid-n", "64", "--points", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: momentum must be at most 1e+154, got {float(momentum)}\n"


class TestConfigFile:
    def test_file_supplies_values_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference scenario\n"
            "mu1 = 0.4\n"
            "ratio = 10\n"
            "format = json\n"
        )
        assert main(["single", "--config", str(cfg), "--mu1", "0.25"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mu1"] == 0.25
        assert record["sigma1_sq"] == 100.0

    def test_flag_overrides_conflicting_file_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ratio = 10\n")
        # An explicit width flag silences the file's ratio.
        assert main(["single", "--mu1", "0.25", "--sigma1-sq", "25",
                     "--config", str(cfg)]) == 0
        record = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(record[2]) == 25.0

    def test_mu1_flag_silences_file_masses(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mass1 = 1\nmass2 = 1\n")
        argv = ["transient", "--grid-n", "64", "--points", "2", "--format", "json"]
        assert main([*argv, "--config", str(cfg), "--mu1", "0.3"]) == 0
        from_file = capsys.readouterr().out
        assert json.loads(from_file)["meta"]["mu1"] == 0.3
        assert main([*argv, "--mu1", "0.3"]) == 0
        assert capsys.readouterr().out == from_file

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma3_sq = 1\n")
        assert main(["single", "--config", str(cfg)]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_coverage_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coverage = 6\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 2
        assert "unknown configuration key 'coverage'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, mode, key", [("points = 2.5", "sweep-mu", "points"),
                                                 ("grid_n = abc", "oracle-check", "grid_n")])
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, line, mode, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# scenario\n{line}\n")
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line, message", [
        ("mu1 0.3", "{cfg}:2: expected 'key = value', got 'mu1 0.3\\n'"),
        # argparse checks the --format flag's choices; the key's type checks the file's.
        ("format = xml", "{cfg}:2: format: must be csv or json, got 'xml'"),
    ])
    def test_malformed_line_or_format_is_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# scenario\n{line}\n")
        assert main(["single", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "error: " + message.format(cfg=cfg) + "\n")

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["single", "--config", "/nonexistent/run.cfg"]) == 3

    def test_file_that_is_not_utf8_names_the_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xffmu1 = 0.3\n")
        assert main(["single", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cfg}: 'utf-8' codec can't decode byte 0xff "
                                "in position 0: invalid start byte\n")

    def test_file_is_read_as_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# Größen \u03c3\u00b2\nmu1 = 0.3\n".encode("utf-8"))
        assert main(["single", "--config", str(cfg), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["mu1"] == 0.3


def run_python(*args, env=None, preexec_fn=None):
    """Run a fresh interpreter that imports this hcscatter, with ``env``
    added to the environment and ``preexec_fn`` run in the child first."""
    src = str(Path(hcscatter.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=False, preexec_fn=preexec_fn)


class TestModuleEntry:
    def test_python_m_runs_the_cli(self):
        done = run_python("-m", "hcscatter", *GOLDEN_CASES["single_mu1_csv"]["argv"])
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "single_mu1_csv.txt").read_text()
        assert done.stderr == ""


class TestLinspace:
    """``_linspace`` against ``np.linspace``, compared bit for bit."""

    @staticmethod
    def assert_matches_numpy(start, stop, count):
        got = np.array(_linspace(start, stop, count))
        want = np.linspace(start, stop, count)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (start, stop, count)

    def test_sweep_interval(self):
        for count in range(1, 5001):
            self.assert_matches_numpy(0.01, 0.99, count)

    def test_default_transient_window(self):
        t_stop = 2.5 * _resolve("transient", {}, {}).params.collision_time
        for count in range(1, 1001):
            self.assert_matches_numpy(0.0, t_stop, count)

    def test_random_windows(self):
        rng = np.random.default_rng(59)
        for _ in range(2000):
            start = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300))
            stop = start + abs(start) * float(10.0 ** rng.uniform(-12, 3))
            self.assert_matches_numpy(start, stop, int(rng.integers(1, 200)))


class TestNumpyFree:
    def test_closed_form_modes_do_not_import_numpy(self):
        script = (
            "import contextlib, io, sys\n"
            "from hcscatter.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['single']), main(['ellipse', '--points', '4']),\n"
            "             main(['sweep-mu', '--points', '3'])]\n"
            "    try:\n"
            "        main(['--help'])\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(codes, sorted(m for m in ('numpy', 'hcscatter.gridsim') if m in sys.modules))\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[0, 0, 0, 0] []\n"
        assert done.stderr == ""

    def test_oracle_check_does_not_import_numpy_random(self):
        # The Schmidt spectrum samples the state's range with columns of the
        # state itself.  numpy 2 loads numpy.random lazily, and loading it
        # would add about 6 MB to the process; numpy 1 loads it with numpy,
        # so it is forgotten here and any later import of it fails.
        script = (
            "import contextlib, io, sys\n"
            "import numpy\n"
            "def is_random(name):\n"
            "    return name.split('.')[:2] == ['numpy', 'random']\n"
            "class Blocker:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if is_random(name):\n"
            "            raise ImportError('numpy.random is blocked')\n"
            "sys.meta_path.insert(0, Blocker())\n"
            "vars(numpy).pop('random', None)\n"
            "for name in [name for name in sys.modules if is_random(name)]:\n"
            "    del sys.modules[name]\n"
            "from hcscatter.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['oracle-check'])\n"
            "print(code, 'numpy.linalg' in sys.modules, any(map(is_random, sys.modules)))\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 True False\n"
        assert done.stderr == ""


class TestOutputErrors:
    def test_unwritable_path_is_io_error(self, capsys):
        code = main(["single", "--mu1", "0.25",
                     "--out", "/nonexistent-dir/report.csv"])
        assert code == 3


class TestOutOfMemory:
    def test_before_the_configuration_exists(self, monkeypatch, capsys):
        def exhausted(path, types):
            raise MemoryError
        monkeypatch.setattr("hcscatter.cli.parse_config_file", exhausted)
        assert main(["transient", "--config", "run.cfg"]) == 2
        assert capsys.readouterr() == ("", "error: transient ran out of memory\n")

    # Linux enforces RLIMIT_AS; macOS accepts it and allocates anyway.
    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="needs an enforced address-space limit")
    @pytest.mark.parametrize("argv", [["oracle-check"], ["transient", "--points", "1"]])
    def test_grid_too_large_for_memory_is_a_validation_error(self, argv):
        # The 20000^2 amplitudes take 3.2 GB real or 6.4 GB complex, past a
        # 2 GiB address space set on the child alone.
        limit = 2 << 30
        done = run_python(
            "-m", "hcscatter", *argv, "--grid-n", "20000", env={"OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {argv[0]} ran out of memory at grid_n=20000\n"
