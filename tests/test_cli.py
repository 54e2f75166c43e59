"""End-to-end tests for the command-line interface and its exit-code contract."""

import contextlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import infolab.cli as cli
from infolab.cli import parse_and_dispatch, reproduce_figures
from infolab.efficiency import K_THREE, bz_total_closed, thresholds
from infolab.infospace import Hamiltonian, conservation_check
from infolab.states import CANONICAL_TRIAD, density_from_bloch


def run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EVOLVE = ("evolve", "--state", "plus-x", "--hamiltonian", "0,0,1")
REPORT = (*EVOLVE, "--t", "1", "--report-conservation", "--times")


class TestMeasureCommand:
    def test_bz_certainty_prints_one(self, capsys):
        code, out, err = run(capsys, "measure", "bz", "--probs", "1,0")
        assert code == 0
        assert out == "1.0\n"
        assert err == "n=2 k=1.0\n"

    def test_shannon_three_outcomes(self, capsys):
        code, out, err = run(capsys, "measure", "shannon", "--probs", "0.5,0.3,0.2")
        assert code == 0
        assert out.strip() == "1.485475"
        assert "n=3" in err and "k=1.584963" in err

    def test_unnormalized_probs_is_usage_error(self, capsys):
        code, out, err = run(capsys, "measure", "bz", "--probs", "0.5,0.6")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_garbage_probs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "measure", "bz", "--probs", "a,b")
        assert code == 2 and err.startswith("error:")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 2 and err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "measure", "bz")
        assert code == 2 and err.startswith("error:")

    def test_out_of_range_efficiency(self, capsys):
        code, _, err = run(capsys, "efficiency", "sweep", "--min", "-0.5", "--max", "2")
        assert code == 2 and err.startswith("error:")

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "--precision", "0", "efficiency", "thresholds")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("entangle", "check", "--state", "werner:1.5"), "Werner weight must lie in [0, 1], got 1.5"),
            (("entangle", "check", "--state", "werner:nan"), "Werner weight must be finite, got nan"),
            (("efficiency", "sweep", "--min", "-0.5"), "eta_min must lie in [0, 1], got -0.5"),
            (("efficiency", "sweep", "--min", "nan"), "eta_min must be finite, got nan"),
            (("efficiency", "sweep", "--max", "inf"), "eta_max must be finite, got inf"),
            (("efficiency", "sweep", "--steps", "1"), "--steps must lie in [2, 1000000], got 1"),
            (("efficiency", "sweep", "--min", "0.5", "--max", "0.2"), "need eta_min < eta_max, got [0.5, 0.2]"),
            (("--precision", "0", "efficiency", "thresholds"), "--precision must be at least 1, got 0"),
            (("--seed", "-1", "verify"), "--seed must be at least 0, got -1"),
            (
                ("evolve", "--state", "plus-x", "--hamiltonian", "0,0,1", "--t", "nan"),
                "--t must be finite, got nan",
            ),
            (("efficiency", "sweep", "--steps", "0"), "--steps must lie in [2, 1000000], got 0"),
            (("efficiency", "sweep", "--steps", "2000000"), "--steps must lie in [2, 1000000], got 2000000"),
            ((*REPORT, "0:1e9:1e-9"), "--times point count must lie in [1, 1000000], got 1e+18"),
            ((*REPORT, "-1e308:1e308:1e-300"), "--times point count must lie in [1, 1000000], got inf"),
            (("efficiency", "sweep", "--min", "-1e-3"), "eta_min must lie in [0, 1], got -0.001"),
        ],
    )
    def test_error_line_names_the_value(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestComputationErrors:
    def test_parallel_directions_exit_one(self, capsys):
        # a non-orthogonal pair would report this product state at 1.980296 bits
        for state, d1, d2, overlap in (
            ("bell:psi-", "1,0,0", "1,0,0", "1.0"),
            ("product:plus-z;plus-z", "0,0,1", "0,0.1,1", "0.9950371902099893"),
        ):
            argv = ("entangle", "icorr", "--state", state, "--d1", d1, "--d2", d2)
            assert run(capsys, *argv) == (
                1, "", f"error: d1 and d2 must be orthogonal, got |d1.d2| = {overlap}\n"
            )

    def test_measure_value_outside_capacity_exit_one(self, monkeypatch, capsys):
        # valid --probs, wrong result: a computation error, not a usage error
        monkeypatch.setattr(cli, "bz_measure", lambda dist: 1.5)
        code, out, err = run(capsys, "measure", "bz", "--probs", "0.5,0.5")
        assert (code, out, err) == (1, "", "error: bz value 1.5 outside [0, 1.0]\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_angle_exit_one(self, capsys):
        code, out, err = run(
            capsys, "evolve", "--state", "0,0,1", "--hamiltonian", "1e150,0,0", "--t", "1e160"
        )
        assert (code, out, err) == (1, "", "error: evolution angle 2|a|t is not finite\n")

    # |a|t = 1.5e308 is finite but the Bloch angle 2|a|t is not: both routes refuse it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "extra", [(), ("--report-conservation", "--times", "1.5e158:1.5e158:1")], ids=["evolve", "trajectory"]
    )
    def test_one_angle_guard_for_both_routes(self, capsys, extra):
        argv = ["evolve", "--state", "plus-x", "--hamiltonian", "1e150,0,0", "--t", "1.5e158", *extra]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: evolution angle 2|a|t is not finite\n")

    def test_unwritable_output_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            "efficiency",
            "sweep",
            "--steps", "3",
            "--out", "/nonexistent-dir-xyz/sweep.csv",
        )
        assert code == 1 and err.startswith("error:")


class TestQubitCommands:
    def test_info_vector_canonical(self, capsys):
        code, out, err = run(capsys, "qubit", "info-vector", "--state", "plus-z")
        assert code == 0
        assert out.strip() == "0.0,0.0,1.0"
        assert err.strip() == "I_total=1.0"

    def test_info_vector_bloch_input_and_triad(self, capsys):
        code, out, _ = run(
            capsys,
            "qubit", "info-vector",
            "--state", "0,0,0.5",
            "--triad", "0,0,1:0,1,0:-1,0,0",
        )
        assert code == 0
        assert out.strip() == "0.5,0.0,0.0"

    def test_left_handed_triad_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "qubit", "info-vector", "--state", "plus-z",
            "--triad", "0,1,0:1,0,0:0,0,1",
        )
        assert code == 2 and "right-handed" in err


class TestEvolveCommand:
    def test_larmor_flip(self, capsys):
        code, out, _ = run(
            capsys,
            "evolve", "--state", "plus-x", "--hamiltonian", "0,0,0.5",
            "--t", str(math.pi),
        )
        assert code == 0
        assert out.strip() == "-1.0,0.0,0.0"

    @pytest.mark.parametrize(
        "t, expected", [("-1e-3", "0.999998,-0.002,0.0"), ("-2E2", "-0.525296,0.850919,0.0")]
    )
    def test_negative_time_in_scientific_notation(self, capsys, t, expected):
        # "--t -1e-3" must not be mistaken for an option flag
        spaced = run(capsys, *EVOLVE, "--t", t)
        assert spaced == run(capsys, *EVOLVE, f"--t={t}") == (0, f"{expected}\n", "")

    def test_conservation_report_csv(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, out, err = run(
            capsys,
            "evolve", "--state", "plus-x", "--hamiltonian", "0,0,0.5",
            "--t", "3.14159", "--report-conservation", "--times", "0:10:0.1",
            "--out", str(out_file),
        )
        assert code == 0
        assert "max_drift=" in err
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,i1,i2,i3,I_total"
        assert len(lines) == 102  # header + inclusive 0..10 by 0.1
        for line in lines[1:]:
            _, i1, i2, i3, total = (float(v) for v in line.split(","))
            # 12-significant-digit CSV cells reconstruct the identity to ~5e-12
            assert abs((i1 ** 2 + i2 ** 2 + i3 ** 2) - total) <= 5e-12
            assert abs(total - 1.0) <= 1e-12

    def test_report_to_stdout_is_pure_csv(self, capsys):
        code, out, err = run(
            capsys,
            "evolve", "--state", "plus-x", "--hamiltonian", "0,0,1",
            "--t", "1", "--report-conservation", "--times", "0:2:1",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,i1,i2,i3,I_total"
        assert len(out.splitlines()) == 4
        assert "max_drift=" in err

    def test_report_requires_times(self, capsys):
        code, _, err = run(
            capsys,
            "evolve", "--state", "plus-x", "--hamiltonian", "0,0,1",
            "--t", "1", "--report-conservation",
        )
        assert code == 2 and "--times" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = (
            "evolve", "--state", "0.3,0,0.4", "--hamiltonian", "1,2,3",
            "--t", "1.0", "--report-conservation", "--times", "0:5:0.5",
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "hamiltonian, grid",
        [("0.3,-1.1,0.7", "0:10:0.1"), ("0,0,0", "0:5:0.5"), ("1,2,3", "2:2:1")],
        ids=["generic", "zero-hamiltonian", "one-point"],
    )
    def test_report_agrees_with_conservation_check(self, capsys, hamiltonian, grid):
        state = "0.3,-0.2,0.4"
        code, out, err = run(
            capsys, "evolve", "--state", state, "--hamiltonian", hamiltonian,
            "--t", "1", "--report-conservation", "--times", grid,
        )
        report = conservation_check(
            density_from_bloch(np.array([0.3, -0.2, 0.4])),
            Hamiltonian.from_pauli_coefficients(np.array([float(c) for c in hamiltonian.split(",")])),
            CANONICAL_TRIAD,
            cli._parse_times(grid),
        )
        cells = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0
        assert [row[0] for row in cells] == [f"{t:.12g}" for t in report.times]
        assert [row[4] for row in cells] == [f"{v:.12g}" for v in report.i_total_values]
        assert err == f"max_drift={report.max_drift:.3e}\n"


class TestMalformedEvolve:
    """Malformed input to any subcommand: exit 2, one ``error:`` line, no stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--state", "plus-x", "--hamiltonian", "nan,0,1", "--t", "1"),
            ("evolve", "--state", "nan,0,0", "--hamiltonian", "0,0,1", "--t", "1"),
            ("qubit", "info-vector", "--state", "nan,0,0"),
            (*EVOLVE, "--t", "nan"),
            (*EVOLVE, "--t", "inf"),
            (*EVOLVE, "--t", "-inf", "--report-conservation", "--times", "0:1:0.5"),
            (*REPORT, "nan:1:0.5"),
            (*REPORT, "0:inf:0.5"),
            (*REPORT, "0:1:nan"),
            (*REPORT, "0:1e9:1e-9"),  # 1e18 points: refused before anything is allocated
            (*REPORT, "-1e308:1e308:1e-300"),  # span overflows to inf
            ("measure", "bz", "--probs", "nan,nan"),
            ("measure", "shannon", "--probs", "nan,0.5"),
            ("qubit", "info-vector", "--state", "plus-z", "--triad", "nan,0,0:0,1,0:0,0,1"),
            ("qubit", "info-vector", "--state", "plus-z", "--triad", "inf,0,0:0,1,0:0,0,1"),
            (*EVOLVE, "--t", "1", "--triad", "nan,0,0:0,1,0:0,0,1"),
            ("entangle", "icorr", "--state", "bell:psi-", "--d1", "nan,0,0", "--d2", "0,1,0"),
            ("entangle", "icorr", "--state", "bell:psi-", "--d1", "inf,0,0", "--d2", "0,1,0"),
            (
                "evolve", "--state", "0,0,1", "--hamiltonian", "1e200,0,0",
                "--t", "1", "--report-conservation", "--times", "0:1:0.5",
            ),
            ("measure", "shannon", "--probs", "1e308,1e308"),  # the sum would overflow
            ("measure", "shannon", "--probs", "inf,-inf"),
            ("qubit", "info-vector", "--state", "1,0"),
            ("entangle", "check", "--state", "werner:abc"),
            ("entangle", "check", "--state", "product:plus-x"),
            ("qubit", "info-vector", "--state", "plus-z", "--triad", "1,0,0:0,1,0"),
            (*REPORT, "0:1"),
            (*REPORT, "a:b:c"),
            (*REPORT, "1:0:0.1"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_usage_error_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_point_cap_boundary(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
        assert cli._parse_times("0:1:0.1").size == 11
        with pytest.raises(cli.UsageError, match=r"^--times point count must lie in \[1, 11\], got 12.0$"):
            cli._parse_times("0:1.1:0.1")
        code, out, _ = run(capsys, "efficiency", "sweep", "--steps", "11")
        assert code == 0 and len(out.splitlines()) == 12
        code, out, err = run(capsys, "efficiency", "sweep", "--steps", "12")
        assert code == 2 and out == "" and err == "error: --steps must lie in [2, 11], got 12\n"

    @pytest.mark.parametrize(
        "flag, value", [("--times", "0:1:0.5"), ("--out", "x.csv"), ("--triad", "0,1,0:-1,0,0:0,0,1")]
    )
    def test_report_flag_without_report_refused(self, tmp_path, capsys, flag, value):
        # evolve alone prints one Bloch vector: a report flag would be dropped unread
        argv = (*EVOLVE, "--t", "1", flag, str(tmp_path / value) if flag == "--out" else value)
        assert run(capsys, *argv) == (2, "", f"error: {flag} requires --report-conservation\n")
        assert list(tmp_path.iterdir()) == []

    def test_report_evolves_each_point_once(self, monkeypatch, tmp_path, capsys):
        calls = {"trajectory": 0, "evolve": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        # the rows and their totals both come from this one trajectory pass
        monkeypatch.setattr(cli, "_trajectory", counted("trajectory", cli._trajectory))
        monkeypatch.setattr(cli, "evolve", counted("evolve", cli.evolve))
        code, _, _ = run(capsys, *REPORT, "0:10:0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert calls == {"trajectory": 1, "evolve": 1}  # the grid once, plus --t for stdout


class TestEfficiencyCommands:
    def test_thresholds_default_precision(self, capsys):
        code, out, _ = run(capsys, "efficiency", "thresholds")
        assert code == 0
        assert out == "0.294495 0.905505\n"

    def test_thresholds_higher_precision(self, capsys):
        code, out, _ = run(capsys, "--precision", "9", "efficiency", "thresholds")
        assert code == 0
        lo, hi = (float(v) for v in out.split())
        exact_lo, exact_hi = thresholds()
        assert abs(lo - exact_lo) < 1e-9 and abs(hi - exact_hi) < 1e-9

    def test_sweep_header_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "efficiency", "sweep", "--min", "0", "--max", "1",
                "--steps", "201", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "eta,I1,I2,I3,I_total,ratio,Hx,Hy,Hz"
        assert len(lines) == 202

    def test_sweep_stdout(self, capsys):
        code, out, _ = run(capsys, "efficiency", "sweep", "--steps", "3")
        assert code == 0
        assert out.splitlines()[0].startswith("eta,")

    def test_figures(self, tmp_path, capsys):
        code, _, err = run(capsys, "efficiency", "figures", "--out-dir", str(tmp_path))
        assert code == 0
        for name in ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg"):
            assert (tmp_path / name).exists(), name
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert fig1[0] == "eta,ratio"
        assert len(fig1) == 202
        fig2 = {
            float(line.split(",")[0]): tuple(float(v) for v in line.split(",")[1:])
            for line in (tmp_path / "fig2.csv").read_text().splitlines()[1:]
        }
        hx_at_half, _ = fig2[0.5]
        assert abs(hx_at_half - 1.0) <= 1e-12
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestReproduceFigures:
    def test_paths_and_byte_stability(self, tmp_path):
        first = reproduce_figures(tmp_path / "one")
        second = reproduce_figures(tmp_path / "two")
        assert [p.name for p in first] == ["fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg"]
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_fig1_ratio_is_one_at_threshold(self):
        # the curve behind fig1 crosses exactly 1 at the computed thresholds
        lo, hi = thresholds()
        for eta in (lo, hi):
            assert abs(bz_total_closed(eta) / K_THREE - 1.0) <= 1e-9

    def test_fig2_maxima_markers(self, tmp_path):
        reproduce_figures(tmp_path)
        rows = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        etas, hx, hy = table[:, 0], table[:, 1], table[:, 2]
        assert etas[int(np.argmax(hx))] == pytest.approx(0.5, abs=1e-12)
        assert abs(etas[int(np.argmax(hy))] - 2.0 / 3.0) <= 0.005  # within one grid step
        assert np.max(hy) <= math.log2(3.0) + 1e-12


class TestEntangleCommands:
    def test_icorr_bell(self, capsys):
        code, out, err = run(
            capsys,
            "entangle", "icorr", "--state", "bell:psi-", "--d1", "1,0,0", "--d2", "0,1,0",
        )
        assert code == 0
        assert out == "2.0\n"
        assert "E1=-1.0" in err and "E2=-1.0" in err

    def test_icorr_nearly_parallel_is_one_error_line(self, capsys):
        argv = ("entangle", "icorr", "--state", "bell:psi-", "--d1", "1,0,0", "--d2", "1,1e-5,0")
        assert run(capsys, *argv) == (
            1,
            "",
            "error: d1 and d2 must be orthogonal, got |d1.d2| = 0.99999999995\n",
        )

    def test_negative_vector_components_accepted(self, capsys):
        # "--d2 -1,0,0" must not be mistaken for an option flag
        code, out, _ = run(
            capsys,
            "entangle", "icorr", "--state", "bell:psi-", "--d1", "0,0,1", "--d2", "-1,0,0",
        )
        assert code == 0 and out == "2.0\n"
        code, out, _ = run(capsys, "qubit", "info-vector", "--state", "-0.6,0,-0.8")
        assert code == 0 and out.strip() == "-0.6,0.0,-0.8"

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_icorr_normalizes_directions(self, capsys):
        # squaring 1e200 overflows and 1e-200 underflows; both are still directions
        for d1, d2 in (("2,0,0", "0,0,-3"), ("1e200,0,0", "0,1,0"), ("1e-200,0,0", "0,1,0")):
            code, out, err = run(
                capsys, "entangle", "icorr", "--state", "bell:psi-", "--d1", d1, "--d2", d2
            )
            assert code == 0 and out == "2.0\n"
            assert err == "E1=-1.0 E2=-1.0 I1=1.0 I2=1.0\n"

    def test_check_werner(self, capsys):
        code, out, err = run(capsys, "entangle", "check", "--state", "werner:0.8")
        assert code == 0
        verdict, value = out.split()
        assert verdict == "true"
        assert float(value) == pytest.approx(1.28, abs=1e-6)
        assert err.startswith("d1=")

    def test_check_product_state(self, capsys):
        code, out, _ = run(capsys, "entangle", "check", "--state", "product:plus-z;plus-z")
        assert code == 0
        assert out.split()[0] == "false"

    def test_bad_two_qubit_state(self, capsys):
        code, _, err = run(capsys, "entangle", "check", "--state", "ghz:3")
        assert code == 2 and err.startswith("error:")

    def test_werner_weight_out_of_range(self, capsys):
        code, _, err = run(capsys, "entangle", "check", "--state", "werner:1.5")
        assert code == 2 and err.startswith("error:")


def per_cell_csv(header, columns) -> str:
    """The one-f-string-per-cell join that ``cli._csv`` replaced, kept as its oracle."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


CSV_FLOATS = st.one_of(
    st.floats(),  # any float64: nan, +-inf, subnormals included
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
)


@st.composite
def csv_tables(draw):
    n_rows = draw(st.integers(0, 50))
    # numpy's array strategy draws a fill value and some cells, not each cell as st.lists does
    columns = draw(st.lists(arrays(np.float64, n_rows, elements=CSV_FLOATS), min_size=1, max_size=9))
    # each column either a float64 array or a list of Python floats
    return [c if draw(st.booleans()) else c.tolist() for c in columns]


class TestCsvFormatting:
    @settings(max_examples=100, deadline=None)
    @given(csv_tables())
    def test_matches_per_cell_join(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        assert cli._csv(header, columns) == per_cell_csv(header, columns)

    def test_rows_across_blocks(self):
        columns = np.random.default_rng(3).normal(size=(3, 2 * cli._CSV_BLOCK_ROWS + 1)) * 1e5
        assert cli._csv("abc", columns) == per_cell_csv("abc", columns)


# hostile argv: numbers that argparse or float() might misread, malformed
# vectors, states, two-qubit states and time grids, mixed with valid ones
NUMBERS = st.sampled_from(
    ("0.5", "-0.5", "-1e-3", "0", "-1", "-2E2", "-.5e1", "1_0", "5e-324", "1e308", "nan", "-inf", "")
)
INTEGERS = st.sampled_from(("3", "7", "1_0", "0", "-1", "-2E2", "1e308", "", "nan"))
VECTORS = st.one_of(
    st.sampled_from(("-0.5,0.5,0", "1,0,0", "0,-1e-3,0.5", "0.5,0.5")),
    st.lists(NUMBERS, min_size=3, max_size=3).map(",".join),
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(("1,,0", "x,y,z", ",", "-", "--1", "1;0;0", "-1,0,0:0,1,0")),
)
STATES = st.one_of(st.sampled_from(("plus-x", "minus-z", "mixed", "-x", "plus_x")), VECTORS)
TWO_QUBIT_STATES = st.one_of(
    st.sampled_from(("bell:phi+", "bell:psi-", "bell:xx", "bell", "product:plus-x", "", "ghz:1")),
    NUMBERS.map("werner:{}".format),
    st.tuples(STATES, STATES).map(lambda pair: "product:{};{}".format(*pair)),
)
TRIADS = st.one_of(
    st.sampled_from(("0,1,0:-1,0,0:0,0,1", "1,0,0:0,-1,0:0,0,-1", "-1,0,0:0,-1,0:0,0,1")),
    st.lists(VECTORS, min_size=2, max_size=4).map(":".join),
)
# every finite NUMBER but 1e308 has |x| <= 2E2, so with these steps an accepted
# grid has at most a few hundred points: a wider span exceeds the point cap
STEPS = st.sampled_from(("0.5", "1", "1e308", "-.5e1", "0", "nan", "5e-324", ""))
GRIDS = st.one_of(
    st.tuples(NUMBERS, NUMBERS, STEPS).map(":".join),
    st.sampled_from(("0:1", "0:1:0.5:1", "1:0:1", "a:b:c")),
)


@st.composite
def hostile_argv(draw):
    def option(flag, values):  # the spaced form goes through the argv rewrite
        value = draw(values)
        return [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]

    def maybe(flag, values):
        return option(flag, values) if draw(st.booleans()) else []

    commands = ("measure", "info-vector", "evolve", "report", "sweep", "thresholds", "icorr")
    command = draw(st.sampled_from(commands))
    if command == "measure":
        argv = ["measure", draw(st.sampled_from(("shannon", "bz"))), *option("--probs", VECTORS)]
    elif command == "info-vector":
        argv = ["qubit", "info-vector", *option("--state", STATES), *maybe("--triad", TRIADS)]
    elif command in ("evolve", "report"):
        argv = ["evolve", *option("--state", STATES), *option("--hamiltonian", VECTORS), *option("--t", NUMBERS)]
        if command == "report":
            argv += ["--report-conservation", *option("--times", GRIDS), *maybe("--triad", TRIADS)]
    elif command == "sweep":
        argv = ["efficiency", "sweep", *maybe("--min", NUMBERS), *maybe("--max", NUMBERS)]
        argv += maybe("--steps", INTEGERS)
    elif command == "thresholds":
        argv = ["efficiency", "thresholds"]
    else:
        argv = ["entangle", "icorr", *option("--state", TWO_QUBIT_STATES)]
        argv += [*option("--d1", VECTORS), *option("--d2", VECTORS)]
    leading = [*maybe("--seed", INTEGERS), *maybe("--precision", INTEGERS)]
    return [*(leading if draw(st.booleans()) else []), *argv]


class TestCliContract:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(hostile_argv())
    def test_result_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parse_and_dispatch(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code != 0:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not re.search("nan|inf", out, re.IGNORECASE)


class TestParserReuse:
    SEQUENCE = (
        ("evolve", "--state", "plus-x"),  # usage error: required flags missing
        (*EVOLVE, "--t", "1", "--report-conservation", "--times", "0:2:0.5"),
        ("measure", "bz", "--probs", "0.3,0.7"),
        ("efficiency", "thresholds"),
    )

    def test_shared_parser_leaks_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        in_process = [run(capsys, *argv) for argv in self.SEQUENCE]
        code, out, err = in_process[0]
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        for argv, expected in zip(self.SEQUENCE, in_process):
            alone = _python("-m", "infolab.cli", *argv)
            assert (alone.returncode, alone.stdout, alone.stderr) == expected, argv


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the same infolab sources as this test."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_importing_cli_leaves_the_invariant_suite_unloaded():
    # only the verify subcommand imports infolab.verify; every other CLI process skips it
    done = _python("-c", "import sys, infolab.cli; print('infolab.verify' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


README = Path(__file__).parent.parent / "README.md"
README_EXAMPLE = re.compile(r"^infolab (.+?)\s+# -> (.+)$", re.MULTILINE)


@pytest.mark.parametrize("command, expected", README_EXAMPLE.findall(README.read_text()))
def test_readme_example_prints_what_it_shows(capsys, command, expected):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0 and out.splitlines()[0] == expected


def test_readme_shows_examples():
    assert len(README_EXAMPLE.findall(README.read_text())) >= 6
