import json
import math
from pathlib import Path

import numpy as np
import pytest

from hcscatter.cli import _build_parser, main


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


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
NARROW_WARNING = (
    "warning: width ratio 1.5 is below 10; the wide-packet approximation degrades\n"
)


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
            ["--sigma1-sq", "1e300", "--sigma2-sq", "1e-300"],
            ["--sigma1-sq", "1e-300", "--sigma2-sq", "1e300"],
            ["--sigma2-sq", "1e-320"],
        ],
    )
    def test_width_ratio_out_of_range_is_a_validation_error(self, mode, widths, capsys):
        # Every flag path to the widths is checked, not only --ratio:
        # --ratio 1e-160 makes a subnormal sigma1_sq.
        assert main([mode, *widths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: width ratio out of range: ")
        assert captured.err.count("\n") == 1


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

        form = scattered_form(
            MassFractions(float(meta["mu1"])),
            float(meta["sigma1_sq"]),
            float(meta["sigma2_sq"]),
        )
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

    @pytest.mark.parametrize("masses", [["--mu1", "0.25"], ["--mass1", "1", "--mass2", "3"]])
    def test_default_masses(self, masses, capsys):
        argv = ["transient", "--grid-n", "64", "--points", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, *masses]) == 0
        assert capsys.readouterr().out == default

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

    def test_starved_grid_is_a_coverage_error(self, capsys):
        code = main(["oracle-check", "--grid-n", "64", "--coverage", "2.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "deficit" in err

    def test_coverage_error_keeps_a_huge_norm_short(self, capsys):
        # The grid norm here is about 1e148; spelled out with a fixed
        # number of decimals it took 300 digits.
        argv = ["oracle-check", "--sigma1-sq", "1e300", "--sigma2-sq", "1", "--grid-n", "64"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid norm of the reflected state is ")
        assert err.count("\n") == 1 and len(err) < 250
        norm = err.split(" is ", 1)[1].split(" ", 1)[0]
        assert "e+" in norm and len(norm) <= 12

    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    @pytest.mark.parametrize("coverage", ["nan", "inf"])
    def test_non_finite_coverage_is_a_validation_error(self, mode, coverage, capsys):
        assert main([mode, "--grid-n", "64", "--points", "1", "--coverage", coverage]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: coverage must be positive and finite, got {coverage}\n"


    @pytest.mark.parametrize("mode", ["oracle-check", "transient"])
    def test_tiny_widths_are_a_validation_error(self, mode, capsys):
        # No grid resolves packets 1e-20 wide around centers near 0.5.
        argv = [mode, "--sigma1-sq", "1e-40", "--sigma2-sq", "1e-40", "--grid-n", "64",
                "--points", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["single", "--config", "/nonexistent/run.cfg"]) == 3


class TestOutputErrors:
    def test_unwritable_path_is_io_error(self, capsys):
        code = main(["single", "--mu1", "0.25",
                     "--out", "/nonexistent-dir/report.csv"])
        assert code == 3
