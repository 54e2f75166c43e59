"""Golden outputs: the command line's bytes, compared against fixtures.

``tests/data/golden/`` holds the exact output of ``infolab verify`` at seed
42, the default ``efficiency sweep`` CSV, the four ``efficiency figures``
files and the README's ``evolve --report-conservation`` CSV.  A refactor
leaves every byte unchanged.  A change that alters a fixture on purpose must
name each changed line and the reason in ``CHANGES.md``.
"""

from pathlib import Path

import infolab.cli as cli

GOLDEN = Path(__file__).parent / "data" / "golden"


def _stdout(capsys, *argv) -> bytes:
    assert cli.parse_and_dispatch(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


def _assert_golden(actual: bytes, name: str) -> None:
    # line lists, so a failure points at the first changed line
    expected = (GOLDEN / name).read_bytes()
    assert actual.splitlines(keepends=True) == expected.splitlines(keepends=True), name


def test_verify_seed_42(monkeypatch, capsys, seed_42_results):
    # prints the session's seed-42 run (shared with test_verify) through the CLI
    seeds = []
    monkeypatch.setattr(cli, "run_all", lambda seed: seeds.append(seed) or seed_42_results)
    _assert_golden(_stdout(capsys, "--seed", "42", "verify"), "verify_seed42.txt")
    assert seeds == [42]


def test_default_sweep(capsys):
    _assert_golden(_stdout(capsys, "efficiency", "sweep"), "sweep_default.csv")


def test_figures(tmp_path, capsys):
    _stdout(capsys, "efficiency", "figures", "--out-dir", str(tmp_path))
    for name in ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg"):
        _assert_golden((tmp_path / name).read_bytes(), name)


def test_readme_evolve_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    _stdout(
        capsys,
        "evolve", "--state", "plus-x", "--hamiltonian", "0,0,0.5", "--t", "3.14159",
        "--report-conservation", "--times", "0:10:0.1", "--out", str(out),
    )
    _assert_golden(out.read_bytes(), "evolve_report.csv")
