import json
import subprocess
import sys

import numpy as np
import pytest

from netmodal.cli import main
from netmodal.netfile import NetworkDocument, serialize_network
from netmodal.statespace import build_state_space, random_rlc_network

SAMPLE = "src/netmodal/data/three_node.net"

PARALLEL_RLC = """
[meta]
name = cell
frequency_unit = rads

[node]
id = 1

[shunt]
node = 1
kind = rlc
r = 1.0
l = 1.0
c = 1.0
"""


@pytest.fixture()
def rlc_file(tmp_path):
    path = tmp_path / "cell.net"
    path.write_text(PARALLEL_RLC)
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


class TestModes:
    def test_parallel_rlc_single_oscillatory_entry(self, capsys, rlc_file):
        payload = run_json(capsys, "modes", rlc_file)
        oscillatory = [m for m in payload["modes"] if m["pair"]]
        assert len(oscillatory) == 1
        assert oscillatory[0]["re"] == pytest.approx(-0.5, abs=1e-9)
        assert oscillatory[0]["im"] == pytest.approx(0.8660254, abs=1e-6)
        assert oscillatory[0]["near_repeated"] is False

    def test_malformed_section_exit_2_names_section(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text(PARALLEL_RLC.replace("[shunt]", "[shunty]"))
        code, _, err = run_cli(capsys, "modes", str(bad))
        assert code == 2
        assert "[shunty]" in err

    def test_parse_error_reports_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text(PARALLEL_RLC.replace("r = 1.0", "r = oops"))
        code, _, err = run_cli(capsys, "modes", str(bad))
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "modes", str(tmp_path / "absent.net"))
        assert code == 2

    def test_sample_matches_state_space_oracle(self, capsys, three_node_net):
        payload = run_json(capsys, "modes", SAMPLE)
        eigs = build_state_space(three_node_net).eigenvalues()
        upper = np.sort_complex(eigs[eigs.imag > 1e-9])
        reported = np.sort_complex(
            np.array([m["re"] + 1j * m["im"] for m in payload["modes"] if m["pair"]])
        )
        assert np.max(np.abs(upper - reported) / np.maximum(1, np.abs(upper))) < 1e-6

    def test_conjugates_collapsed(self, capsys):
        payload = run_json(capsys, "modes", SAMPLE)
        assert len(payload["modes"]) == 6  # 3 pairs collapsed + 3 real
        assert all(m["im"] >= 0 for m in payload["modes"])

    def test_near_repeated_listed_with_flag(self, capsys, tmp_path):
        twins = tmp_path / "twins.net"
        twins.write_text(
            PARALLEL_RLC
            + "\n[node]\nid = 2\n\n[shunt]\nnode = 2\nkind = rlc\n"
              "r = 1.0\nl = 1.0\nc = 1.0000000001\n"
        )
        payload = run_json(capsys, "modes", str(twins))
        flagged = [m for m in payload["modes"] if m["near_repeated"]]
        assert flagged


class TestGreybox:
    def test_layer2_shares_sum_to_one(self, capsys):
        payload = run_json(capsys, "greybox", SAMPLE, "--mode", "1")
        total = sum(
            abs(complex(e["share_re"], e["share_im"])) for e in payload["layer2"]
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_fraction_zeroes_predictions(self, capsys):
        payload = run_json(capsys, "greybox", SAMPLE, "--mode", "1", "--fraction", "0")
        for entry in payload["layer3"]:
            assert entry["predicted"] == {"re": 0.0, "im": 0.0}
        for entry in payload["guidance"]:
            assert entry["predicted"] == {"re": 0.0, "im": 0.0}

    def test_mode_by_frequency_matches_scan_peak(self, capsys):
        code, _, err = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.01",
                               "--fmax", "10", "--points", "200", "--entry", "2,2")
        assert code == 0
        peaks = json.loads(err)
        top = peaks["entries"][0]["peaks"][0]
        payload = run_json(capsys, "greybox", SAMPLE, "--mode", str(top["freq_rads"]))
        step = (10.0 / 0.01) ** (1.0 / 199.0)
        assert payload["mode"]["im"] / top["freq_rads"] < step
        assert top["freq_rads"] / payload["mode"]["im"] < step

    def test_ambiguous_frequency_selector_exit_3(self, capsys):
        payload = run_json(capsys, "modes", SAMPLE)
        osc = [m["im"] for m in payload["modes"] if m["pair"]]
        midpoint = 0.5 * (osc[0] + osc[1])
        code, _, err = run_cli(capsys, "greybox", SAMPLE, "--mode", str(midpoint))
        assert code == 3
        assert "candidates" in err

    def test_index_out_of_range_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "greybox", SAMPLE, "--mode", "99")
        assert code == 3

    def test_real_mode_rejected(self, capsys):
        code, _, err = run_cli(capsys, "greybox", SAMPLE, "--mode", "4")
        assert code == 3
        assert "not oscillatory" in err


class TestScan:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                               "--points", "5", "--entry", "1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "freq_hz,re,im"
        assert len(lines) == 6

    def test_two_points_no_peaks(self, capsys):
        code, out, err = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                                 "--points", "2", "--entry", "1,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert json.loads(err)["entries"][0]["peaks"] == []

    def test_single_resonator_peak_at_mode(self, capsys, tmp_path):
        # lightly damped cell, so the magnitude peak sits on the mode
        path = tmp_path / "light.net"
        path.write_text(PARALLEL_RLC.replace("r = 1.0", "r = 0.1"))
        payload = run_json(capsys, "modes", str(path))
        mode_rads = [m["im"] for m in payload["modes"] if m["pair"]][0]
        code, _, err = run_cli(capsys, "scan", str(path), "--fmin", "0.05",
                               "--fmax", "5", "--points", "300", "--entry", "1,1")
        assert code == 0
        peaks = json.loads(err)["entries"][0]["peaks"]
        assert len(peaks) == 1
        step = (5.0 / 0.05) ** (1.0 / 299.0)
        ratio = peaks[0]["freq_rads"] / mode_rads
        assert 1.0 / step <= ratio <= step

    def test_dominant_peak_common_across_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.01", "--fmax", "10",
                               "--points", "200", "--entry", "all",
                               "--out-dir", "/tmp/nm_scan_test")
        assert code == 0
        payload = json.loads(out)
        tops = {}
        for entry in payload["entries"]:
            k, i = entry["entry"]
            if k == i:
                tops[k] = entry["peaks"][0]["freq_rads"]
        assert len(set(round(v, 9) for v in tops.values())) == 1

    def test_entry_out_of_range_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                               "--points", "5", "--entry", "7,1")
        assert code == 3
        assert "out of range" in err

    def test_plot_data_two_columns(self, capsys):
        code, out, _ = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                               "--points", "4", "--entry", "1,1", "--plot-data")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert all(len(r) == 2 for r in rows)
        assert len(rows) == 4

    def test_hz_unit_interpretation(self, capsys, tmp_path):
        hz_file = tmp_path / "hz.net"
        hz_file.write_text(PARALLEL_RLC.replace("rads", "hz"))
        code, out, _ = run_cli(capsys, "scan", str(hz_file), "--fmin", "0.1",
                               "--fmax", "1", "--points", "3", "--entry", "1,1")
        assert code == 0
        first = float(out.strip().splitlines()[1].split(",")[0])
        assert first == pytest.approx(0.1, rel=1e-9)


class TestFitCommand:
    def test_round_trip_against_modes(self, capsys, tmp_path):
        scan_dir = tmp_path / "spectra"
        code, _, _ = run_cli(capsys, "scan", SAMPLE, "--fmin", "0.01", "--fmax", "10",
                             "--points", "200", "--entry", "all",
                             "--out-dir", str(scan_dir))
        assert code == 0
        fit_payload = run_json(capsys, "fit", str(scan_dir), "--order", "9")
        modes_payload = run_json(capsys, "modes", SAMPLE)
        fitted = np.sort_complex(
            np.array([p["re"] + 1j * p["im"] for p in fit_payload["poles"]])
        )
        truth = np.sort_complex(
            np.array([m["re"] + 1j * m["im"] for m in modes_payload["modes"]])
        )
        assert fitted.shape == truth.shape
        assert np.max(np.abs(fitted - truth) / np.maximum(1, np.abs(truth))) < 1e-4
        assert fit_payload["misfit"] < 1e-9

    def test_empty_directory_exit_3(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run_cli(capsys, "fit", str(empty), "--order", "4")
        assert code == 3

    def test_zero_order_exit_3(self, capsys, tmp_path):
        scan_dir = tmp_path / "spectra"
        run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                "--points", "30", "--entry", "1,1", "--out-dir", str(scan_dir))
        code, _, err = run_cli(capsys, "fit", str(scan_dir), "--order", "0")
        assert code == 3

    def test_inconsistent_grids_exit_3(self, capsys, tmp_path):
        scan_dir = tmp_path / "spectra"
        run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                "--points", "30", "--entry", "1,1", "--out-dir", str(scan_dir))
        run_cli(capsys, "scan", SAMPLE, "--fmin", "0.1", "--fmax", "1",
                "--points", "31", "--entry", "2,2", "--out-dir", str(scan_dir))
        code, _, err = run_cli(capsys, "fit", str(scan_dir), "--order", "4")
        assert code == 3
        assert "grid" in err


class TestTune:
    def test_small_bump_high_accuracy(self, capsys):
        payload = run_json(capsys, "tune", SAMPLE, "--param", "B1-2.R", "--pct", "0.1")
        for row in payload["results"]:
            assert row["error"] < 0.02
            assert row["direction_correct"]

    def test_five_percent_within_twenty(self, capsys):
        for param in ("A1.R", "A2.C", "B1-2.L"):
            payload = run_json(capsys, "tune", SAMPLE, "--param", param, "--pct", "5")
            for row in payload["results"]:
                assert row["error"] < 0.20
                assert row["direction_correct"]

    def test_unknown_parameter_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "tune", SAMPLE, "--param", "A1.Q", "--pct", "5")
        assert code == 3
        assert "unknown parameter" in err

    def test_unknown_component_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "tune", SAMPLE, "--param", "Z9.R", "--pct", "5")
        assert code == 3

    def test_mode_selector_limits_output(self, capsys):
        payload = run_json(capsys, "tune", SAMPLE, "--param", "A1.R", "--pct", "1",
                           "--mode", "1")
        assert len(payload["results"]) == 1

    def test_tracking_failure_exit_4(self, capsys, tmp_path):
        # near-twin resonators: a bump that lands the moved mode next to the
        # untouched twin defeats nearest-neighbour matching
        twins = tmp_path / "twins.net"
        twins.write_text(
            PARALLEL_RLC
            + "\n[node]\nid = 2\n\n[shunt]\nnode = 2\nkind = rlc\n"
              "r = 1.0\nl = 1.0\nc = 1.0004\n"
        )
        code, _, err = run_cli(capsys, "tune", str(twins), "--param", "A1.C",
                               "--pct", "0.05")
        assert code == 4
        assert "tracking" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("modes", SAMPLE),
            ("greybox", SAMPLE, "--mode", "1", "--fraction", "5"),
            ("tune", SAMPLE, "--param", "A1.R", "--pct", "5"),
            ("scan", SAMPLE, "--fmin", "0.01", "--fmax", "10",
             "--points", "50", "--entry", "1,1"),
        ],
    )
    def test_repeated_runs_byte_identical(self, argv):
        results = [
            subprocess.run(
                [sys.executable, "-m", "netmodal.cli", *argv],
                capture_output=True, check=True,
            )
            for _ in range(2)
        ]
        assert results[0].stdout == results[1].stdout
        assert results[0].stderr == results[1].stderr

    def test_fit_byte_identical(self, tmp_path):
        scan_dir = tmp_path / "spectra"
        subprocess.run(
            [sys.executable, "-m", "netmodal.cli", "scan", SAMPLE,
             "--fmin", "0.01", "--fmax", "10", "--points", "120",
             "--entry", "all", "--out-dir", str(scan_dir)],
            capture_output=True, check=True,
        )
        results = [
            subprocess.run(
                [sys.executable, "-m", "netmodal.cli", "fit", str(scan_dir),
                 "--order", "9"],
                capture_output=True, check=True,
            )
            for _ in range(2)
        ]
        assert results[0].stdout == results[1].stdout


class TestJsonShape:
    def test_floats_rounded_to_twelve_significant_digits(self, capsys):
        payload = run_json(capsys, "modes", SAMPLE)
        for mode in payload["modes"]:
            for key in ("re", "im", "freq_hz", "damping_ratio"):
                value = mode[key]
                assert value == float(f"{value:.12g}")

    def test_greybox_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GREYBOX_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "modes", SAMPLE)
        assert code == 3
        assert "GREYBOX_TOL" in err
        monkeypatch.setenv("GREYBOX_TOL", "1e-6")
        code, _, _ = run_cli(capsys, "modes", SAMPLE)
        assert code == 0

    def test_greybox_tol_gates_residual_check(self, capsys, monkeypatch):
        # an absurdly tight tolerance must trip the near-singularity gate
        monkeypatch.setenv("GREYBOX_TOL", "1e-30")
        code, _, err = run_cli(capsys, "modes", SAMPLE)
        assert code == 4
        assert "determinant zero" in err


def nine_node_text():
    net = random_rlc_network(np.random.default_rng(5), n_nodes=9)
    return serialize_network(NetworkDocument("nine", "rads", net))


EDGE_HEAD = "[meta]\nname = edge\nfrequency_unit = rads\n\n[node]\nid = 1\n"
EDGE_FILES = {
    "empty": "",
    "lossless": EDGE_HEAD + "\n[shunt]\nnode = 1\nkind = rlc\nr = 0\nl = 1\nc = 1\n",
    "zero-admittance": EDGE_HEAD
    + "\n[shunt]\nnode = 1\nkind = rational\nnum = 0\nden = 1\n",
    "capacitor-free-node": EDGE_HEAD
    + "\n[node]\nid = 2\n"
      "\n[shunt]\nnode = 1\nkind = rlc\nr = 1\nl = 1\nc = 1\n"
      "\n[shunt]\nnode = 2\nkind = series-rl\nr = 1\nl = 1\n"
      "\n[branch]\nfrom = 1\nto = 2\nkind = series-rl\nr = 0.5\nl = 0.5\n",
    "two-port": EDGE_HEAD.replace("id = 1\n", "id = 1\nports = 2\n")
    + "\n[shunt]\nnode = 1\nkind = rational\n"
      "num_11 = 1 1\nden_11 = 1 1 1\nnum_12 = 0.1\nden_12 = 1\n"
      "num_21 = 0.1\nden_21 = 1\nnum_22 = 2 1\nden_22 = 2 1 1\n",
    # two d-q nodes joined by a scalar branch, which stamps on both ports
    "two-port-branch": EDGE_HEAD.replace("id = 1\n", "id = 1\nports = 2\n")
    + "\n[node]\nid = 2\nports = 2\n"
    + "".join(f"\n[shunt]\nnode = {k}\nkind = rational\n"
              f"num_11 = {g} {c}\nden_11 = 1\nnum_12 = {x}\nden_12 = 1\n"
              f"num_21 = -{x}\nden_21 = 1\nnum_22 = {g} {c}\nden_22 = 1\n"
              for k, g, c, x in ((1, 0.4, 1.0, 0.2), (2, 0.3, 0.7, 0.1)))
    + "\n[branch]\nfrom = 1\nto = 2\nkind = series-rl\nr = 0.2\nl = 0.5\n",
    "spectrum": EDGE_HEAD + "\n[shunt]\nnode = 1\nkind = spectrum\nfile = Z_1_1.csv\n",
    "nine-node": nine_node_text(),
}
SCAN_GRID = ("--fmin", "0.1", "--fmax", "10", "--points", "3")


def edge_file(tmp_path, name):
    path = tmp_path / f"{name}.net"
    path.write_text(EDGE_FILES[name])
    return str(path)


class TestExitCodeContract:
    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_every_command_exits_with_a_documented_code(self, capsys, tmp_path, name):
        path = edge_file(tmp_path, name)
        for argv in (
            ("modes", path),
            ("greybox", path, "--mode", "0"),
            ("tune", path, "--param", "A1.R", "--pct", "1"),
            ("scan", path, *SCAN_GRID, "--entry", "1,1"),
            ("scan", path, *SCAN_GRID, "--entry", "all", "--out-dir", str(tmp_path / "out")),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code in (0, 2, 3, 4), (argv, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["lossless", "zero-admittance"])
    def test_scan_through_a_singular_point_exit_4(self, capsys, tmp_path, name):
        code, _, err = run_cli(capsys, "scan", edge_file(tmp_path, name), *SCAN_GRID,
                               "--entry", "1,1")
        assert code == 4
        assert "singular" in err

    @pytest.mark.parametrize("name, message", [
        # Y has an entry pole at the spurious listed mode -1, so its Newton
        # distance is NaN, which must fail the check rather than pass it
        ("capacitor-free-node", "away from a determinant zero"),
        ("zero-admittance", "identically zero"),
    ])
    def test_modes_without_a_checked_listing_exit_4(self, capsys, tmp_path, name, message):
        code, out, err = run_cli(capsys, "modes", edge_file(tmp_path, name))
        assert code == 4
        assert message in err
        assert out == ""

    def test_tune_of_a_zero_parameter_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "tune", edge_file(tmp_path, "lossless"),
                               "--param", "A1.R", "--pct", "1")
        assert code == 3
        assert "A1.R" in err

    @pytest.mark.parametrize("param", ["R", "L"])
    def test_tune_of_a_scalar_branch_between_two_ports(self, capsys, tmp_path, param):
        code, out, err = run_cli(capsys, "tune", edge_file(tmp_path, "two-port-branch"),
                                 "--param", f"B1-2.{param}", "--pct", "1")
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results
        assert all(r["error"] < 0.02 and r["direction_correct"] for r in results)

    def test_modes_above_the_symbolic_limit_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "modes", edge_file(tmp_path, "nine-node"))
        assert code == 4
        assert "dimension 8" in err
