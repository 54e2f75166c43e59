"""The benchmark's three workloads: seeded input generators, timed ops and
untimed checks against the oracles in ``oracles.py``.

Each workload repeats a fixed mix cycle, so every block of whole cycles holds
the same work; a run cycles through a fixed pool of such blocks. Inputs reach the library only as raw numpy arrays and argv
strings generated here from the run's seed; nothing uses infolab's own
samplers. A check returns a list of ``(severity, message)`` failures:
``INVARIANT`` means the output is broken (wrong value, inconsistent result,
bad exit code or file), ``ACCURACY`` means a reported maximum falls short of
the exact one by more than its tolerance.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import shutil
import statistics
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

import infolab.efficiency as eff
import infolab.entanglement as ent
import infolab.infospace as isp
import infolab.states as st
import oracles as orc

INVARIANT = "invariant"
ACCURACY = "accuracy"
SHORT_OF_EXACT = "max_i_corr short of the exact maximum by more than 1e-6 bits"

SHORT_POINTS = 50  # conservation_check times in a dynamics read op
EVOLVE_TIMES = "0:10:0.02"
LONG_POINTS = 501  # points the CLI evolves for EVOLVE_TIMES
SWEEP_ROWS = 201  # rows per ratio_sweep and per figures sweep
FIGURE_FILES = ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg")

# Public calls timed in traced blocks, named <module>.<function>.
LAYER_CALLS = (
    "entanglement.TwoQubitState",
    "entanglement.correlation_matrix",
    "entanglement.i_corr",
    "entanglement.info_condition_entangled",
    "states.density_from_bloch",
    "states.MeasurementTriad.from_matrix",
    "infospace.Hamiltonian",
    "infospace.conservation_check",
    "infospace.rotate_triad",
    "infospace.info_vector",
    "efficiency.ratio_sweep",
    "efficiency.SweepTable.validate",
    "cli.evolve",
    "cli.figures",
)
# Per-layer values a workload's checks collect, with their units.
LAYER_EXTRAS = {
    "entanglement.max_i_corr.exact_ratio": "ratio",
    "cli.evolve.bytes_written": "bytes",
    "cli.figures.bytes_written": "bytes",
}
# Calls whose cost is also reported per unit of work: (metric, units per call).
WORK_RATES = {
    "infospace.conservation_check": ("us_per_point", SHORT_POINTS),
    "cli.evolve": ("us_per_point", LONG_POINTS),
    "efficiency.SweepTable.validate": ("us_per_row", SWEEP_ROWS),
}


def _floats(values) -> str:
    """Comma-separated shortest round-trip reprs: the CLI parses them back exactly."""
    return ",".join(repr(float(v)) for v in values)


def random_unit(rng) -> np.ndarray:
    vec = rng.normal(size=3)
    return vec / np.linalg.norm(vec)


def random_bloch(rng, pure: bool) -> np.ndarray:
    """Uniform on the Bloch sphere (pure) or in the Bloch ball (mixed)."""
    return random_unit(rng) * (1.0 if pure else rng.uniform() ** (1.0 / 3.0))


def random_rotation(rng) -> np.ndarray:
    """Haar-random rotation: QR of a Gaussian matrix, sign-fixed, det +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def random_product(rng) -> np.ndarray:
    """Two-qubit product state; each qubit pure or mixed with even odds."""
    first = orc.density(random_bloch(rng, rng.uniform() < 0.5))
    second = orc.density(random_bloch(rng, rng.uniform() < 0.5))
    return np.kron(first, second)


def _close(a, b, atol: float) -> bool:
    return bool(np.max(np.abs(np.subtract(a, b))) <= atol)


def _run_cli(tracer, name: str, cli, argv) -> tuple[int, str, str]:
    """In-process CLI call with stdout and stderr captured for the check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.call(name, cli.parse_and_dispatch, argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """One mix: ``cycle`` lists op kinds in order, ``items`` the items each
    kind processes, ``cycles_per_block`` how many cycles one block holds,
    ``pool_blocks`` how many distinct blocks a run's pool holds (one pass
    takes well under half of a 35 s run), and ``tail_percentile`` which
    op-latency percentile ``op_tail_ms`` reports."""

    name = ""
    cycle: tuple[str, ...] = ()
    items: dict[str, int] = {}
    cycles_per_block = 1
    pool_blocks = 1
    tail_percentile = 90

    def __init__(self, tmp_dir: Path):
        self.tmp = tmp_dir
        self._file_ids = itertools.count()

    def make_block(self, rng) -> list[tuple[str, object]]:
        return [op for _ in range(self.cycles_per_block) for op in self.make_cycle(rng)]

    def make_cycle(self, rng) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warm_up(self, tracer) -> None:
        """Fill lazy caches with one small op on fixed inputs; no full pass."""
        raise NotImplementedError

    def run(self, tracer, kind: str, inputs):
        raise NotImplementedError

    def check(self, kind: str, inputs, output) -> list[tuple[str, str]]:
        raise NotImplementedError

    def layer_extras(self, per_item) -> dict[str, float]:
        """Extra per-layer values; ``per_item`` holds each pool op's failures."""
        return {}

    def mix_shares(self) -> dict[str, float]:
        counts = Counter(self.cycle)
        return {kind: n / len(self.cycle) for kind, n in counts.items()}


class Entangle(Workload):
    """Item: one two-qubit state through construction, correlation matrix,
    i_corr at a random orthonormal pair, and the entanglement condition."""

    name = "entangle"
    cycle = ("product",) * 4 + ("mixture",) * 3 + ("werner",) * 2 + ("bell",)
    items = dict.fromkeys(cycle, 1)
    cycles_per_block = 5
    pool_blocks = 24
    # p90 falls where the pattern search's run time climbs steeply towards its
    # 10,000-evaluation cap, so it swings with the seed's share of hard states
    # (IQR/median 0.38 over five seeds); p99 sits on the cap's plateau.
    tail_percentile = 99

    BELL_KETS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)

    def make_cycle(self, rng):
        states = [random_product(rng) for _ in range(4)]
        for _ in range(3):
            w = rng.dirichlet(np.ones(3))
            states.append(w[0] * random_product(rng) + w[1] * random_product(rng) + w[2] * orc.SINGLET)
        for _ in range(2):
            w = rng.uniform()
            states.append(w * orc.SINGLET + (1.0 - w) / 4.0 * np.eye(4))
        ket = self.BELL_KETS[rng.integers(4)]
        states.append(np.outer(ket, ket).astype(complex))
        ops = []
        for kind, rho in zip(self.cycle, states):
            q = random_rotation(rng)
            ops.append((kind, (rho, q[:, 0].copy(), q[:, 1].copy())))
        return ops

    def warm_up(self, tracer):
        self.run(tracer, "bell", (orc.SINGLET, np.eye(3)[0], np.eye(3)[1]))

    def run(self, tracer, kind, inputs):
        rho, d1, d2 = inputs
        state = tracer.call("entanglement.TwoQubitState", ent.TwoQubitState, rho)
        corr = tracer.call("entanglement.correlation_matrix", ent.correlation_matrix, state)
        pair = tracer.call("entanglement.i_corr", ent.i_corr, state, d1, d2)
        verdict, best = tracer.call(
            "entanglement.info_condition_entangled", ent.info_condition_entangled, state
        )
        return corr, pair, verdict, best

    def check(self, kind, inputs, output):
        rho, d1, d2 = inputs
        corr, pair, verdict, best = output
        t = orc.correlation_matrix(rho)
        exact = orc.max_corr_info(t)
        b1, b2 = best.d1.vec, best.d2.vec
        bad = []
        if not _close(corr, t, 1e-12):
            bad.append((INVARIANT, "correlation_matrix differs from tr[rho (sigma_i x sigma_j)]"))
        if abs(pair.total_bits - orc.corr_info(t, d1, d2)) > 1e-12:
            bad.append((INVARIANT, "i_corr at the random pair differs from the oracle"))
        if not _close([b1 @ b1, b2 @ b2, b1 @ b2], [1.0, 1.0, 0.0], 1e-10):
            bad.append((INVARIANT, "max_i_corr pair is not orthonormal"))
        if abs(best.total_bits - orc.corr_info(t, b1, b2)) > 1e-12:
            bad.append((INVARIANT, "max_i_corr value is not i_corr of its own pair"))
        if best.total_bits > exact + 1e-12:
            bad.append((INVARIANT, "max_i_corr exceeds the exact maximum"))
        if verdict != (best.total_bits > 1.0 + 1e-9):
            bad.append((INVARIANT, "entanglement verdict disagrees with its maximum"))
        if exact - best.total_bits > 1e-6:
            bad.append((ACCURACY, SHORT_OF_EXACT))
        if best.total_bits < pair.total_bits - 1e-12:
            bad.append((ACCURACY, "max_i_corr below i_corr at the random pair"))
        return bad

    def layer_extras(self, per_item):
        exact = sum((ACCURACY, SHORT_OF_EXACT) not in failures for failures in per_item)
        return {"entanglement.max_i_corr.exact_ratio": exact / len(per_item)}


class Dynamics(Workload):
    """Item: one time point evolved and checked. Read ops build validated
    value types and run conservation_check over 50 times; the write op is the
    in-process ``evolve --report-conservation`` CLI over 501 times."""

    name = "dynamics"
    cycle = ("read", "read", "read", "write")
    items = {"read": SHORT_POINTS, "write": LONG_POINTS}
    pool_blocks = 40
    PURE = (True, False, False, True)  # Bloch vector purity by cycle position

    def __init__(self, tmp_dir: Path):
        super().__init__(tmp_dir)
        import infolab.cli

        self.cli = infolab.cli
        self.bytes_written: list[int] = []

    def make_cycle(self, rng):
        ops = []
        for kind, pure in zip(self.cycle, self.PURE):
            x = {"pure": pure, "r0": random_bloch(rng, pure), "a": rng.normal(size=3), "q": random_rotation(rng)}
            if kind == "read":
                x["h"] = rng.normal() * np.eye(2) + np.tensordot(x["a"], orc.PAULI, axes=1)
                x["times"] = np.sort(rng.uniform(0.0, 10.0, SHORT_POINTS))
                x["axis"] = random_unit(rng)
                x["angle"] = rng.uniform(0.0, 2.0 * math.pi)
            else:
                x["t"] = rng.uniform(0.0, 10.0)
                x["out"] = self.tmp / f"evolve-{next(self._file_ids)}.csv"
                x["argv"] = [
                    "evolve",
                    "--state", _floats(x["r0"]),
                    "--hamiltonian", _floats(x["a"]),
                    "--t", repr(x["t"]),
                    "--triad", ":".join(_floats(row) for row in x["q"]),
                    "--report-conservation",
                    "--times", EVOLVE_TIMES,
                    "--out", str(x["out"]),
                ]
            ops.append((kind, x))
        return ops

    def warm_up(self, tracer):
        z = np.array([0.0, 0.0, 1.0])
        self.run(tracer, "read", {
            "pure": True, "r0": z, "h": orc.PAULI[2], "q": np.eye(3), "times": np.array([0.0, 1.0]),
            "axis": z, "angle": 0.5,
        })

    def run(self, tracer, kind, x):
        if kind == "write":
            return _run_cli(tracer, "cli.evolve", self.cli, x["argv"])
        state = tracer.call("states.density_from_bloch", st.density_from_bloch, x["r0"])
        h = tracer.call("infospace.Hamiltonian", isp.Hamiltonian, x["h"])
        triad = tracer.call("states.MeasurementTriad.from_matrix", st.MeasurementTriad.from_matrix, x["q"])
        report = tracer.call("infospace.conservation_check", isp.conservation_check, state, h, triad, x["times"])
        rotated = tracer.call("infospace.rotate_triad", isp.rotate_triad, triad, x["axis"], x["angle"])
        iv = tracer.call("infospace.info_vector", isp.info_vector, state, triad)
        iv_rotated = tracer.call("infospace.info_vector", isp.info_vector, state, rotated)
        return state, triad, report, rotated, iv, iv_rotated

    def check(self, kind, x, output):
        return self._check_write(x, *output) if kind == "write" else self._check_read(x, *output)

    def _check_read(self, x, state, triad, report, rotated, iv, iv_rotated):
        r0, q = x["r0"], x["q"]
        turned = q @ orc.rotation(x["axis"], x["angle"]).T
        total = float(r0 @ r0)
        bad = []
        if not _close(state.rho, orc.density(r0), 1e-12):
            bad.append((INVARIANT, "density_from_bloch differs from (I + r.sigma)/2"))
        if not _close(triad.matrix, q, 0.0) or not _close(rotated.matrix, turned, 1e-12):
            bad.append((INVARIANT, "triad or rotated triad differs from the oracle rotation"))
        if report.times.shape != x["times"].shape or not _close(report.times, x["times"], 0.0):
            bad.append((INVARIANT, "conservation report times differ from the input"))
        elif not _close(report.i_total_values, total, 1e-10) or report.max_drift > 1e-10:
            bad.append((INVARIANT, "total information is not |r0|^2 to 1e-10, or drifts"))
        elif x["pure"] and not _close(report.i_total_values, 1.0, 1e-12):
            bad.append((INVARIANT, "pure-state total is not within 1e-12 of 1"))
        if not _close(iv.as_array(), q @ r0, 1e-10) or not _close(iv_rotated.as_array(), turned @ r0, 1e-10):
            bad.append((INVARIANT, "info_vector differs from Q r0 by more than 1e-10"))
        return bad

    def _check_write(self, x, code, out, err):
        if code != 0:
            return [(INVARIANT, f"evolve exited {code}: {err.strip()}")]
        path = x["out"]
        text = path.read_text(encoding="utf-8")
        path.unlink()
        self.bytes_written.append(len(text.encode("utf-8")))
        lines = text.splitlines()
        if lines[:1] != ["t,i1,i2,i3,I_total"] or len(lines) != LONG_POINTS + 1:
            return [(INVARIANT, "evolve CSV has the wrong header or row count")]
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        r0, a, q = x["r0"], x["a"], x["q"]
        times = 0.02 * np.arange(LONG_POINTS)
        vectors = np.array([q @ orc.precession(a, t) @ r0 for t in times])
        total = float(r0 @ r0)
        bad = []
        if not _close(rows[:, 0], times, 1e-11):
            bad.append((INVARIANT, "evolve CSV times differ from the grid"))
        if not _close(rows[:, 1:4], vectors, 1e-10):
            bad.append((INVARIANT, "evolve CSV info vectors differ from Q R(t) r0 by more than 1e-10"))
        if not _close(rows[:, 4], total, 1e-10) or (x["pure"] and not _close(rows[:, 4], 1.0, 1e-12)):
            bad.append((INVARIANT, "evolve CSV totals are not conserved"))
        printed = [float(v) for v in out.strip().split(",")]
        if not _close(printed, orc.precession(a, x["t"]) @ r0, 1e-6):
            bad.append((INVARIANT, "evolve stdout Bloch vector differs from R(t) r0"))
        drift = err.strip().rpartition("max_drift=")[2]
        if not drift or float(drift) > 1e-10:
            bad.append((INVARIANT, f"evolve reported max_drift {drift!r}"))
        return bad

    def layer_extras(self, per_item):
        return {"cli.evolve.bytes_written": statistics.median(self.bytes_written) if self.bytes_written else 0.0}


class Sweep(Workload):
    """Item: one validated eta row. Read ops sweep a seeded sub-interval and
    validate it; the write op is the in-process ``efficiency figures`` CLI."""

    name = "sweep"
    cycle = ("read", "read", "read", "write")
    items = dict.fromkeys(cycle, SWEEP_ROWS)
    cycles_per_block = 2
    pool_blocks = 40

    def __init__(self, tmp_dir: Path):
        super().__init__(tmp_dir)
        import infolab.cli

        self.cli = infolab.cli
        self.reference: dict[str, bytes] | None = None
        self.bytes_written: list[int] = []

    def make_cycle(self, rng):
        ops = []
        for kind in self.cycle:
            if kind == "read":
                lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
                ops.append((kind, (float(lo), float(hi))))
            else:
                out_dir = self.tmp / f"figures-{next(self._file_ids)}"
                ops.append((kind, (out_dir, ["efficiency", "figures", "--out-dir", str(out_dir)])))
        return ops

    def warm_up(self, tracer):
        self.run(tracer, "read", (0.0, 1.0))

    def run(self, tracer, kind, inputs):
        if kind == "write":
            return _run_cli(tracer, "cli.figures", self.cli, inputs[1])
        table = tracer.call("efficiency.ratio_sweep", eff.ratio_sweep, inputs[0], inputs[1], SWEEP_ROWS)
        tracer.call("efficiency.SweepTable.validate", table.validate)
        return table

    def check(self, kind, inputs, output):
        if kind == "write":
            return self._check_write(inputs[0], *output)
        expected = orc.efficiency_columns(np.linspace(inputs[0], inputs[1], SWEEP_ROWS))
        if len(output) != SWEEP_ROWS:
            return [(INVARIANT, f"ratio_sweep returned {len(output)} rows")]
        for name, column in zip(eff.SweepTable.HEADER, output.columns()):
            if not _close(column, expected[name], 1e-12):
                return [(INVARIANT, f"sweep column {name} differs from its closed form")]
        return []

    def _check_write(self, out_dir: Path, code, out, err):
        if code != 0:
            return [(INVARIANT, f"figures exited {code}: {err.strip()}")]
        files = {name: (out_dir / name).read_bytes() for name in FIGURE_FILES}
        shutil.rmtree(out_dir)
        self.bytes_written.append(sum(len(data) for data in files.values()))
        if self.reference is not None:
            changed = [name for name in FIGURE_FILES if files[name] != self.reference[name]]
            return [(INVARIANT, f"{name} differs from the first write") for name in changed]
        self.reference = files
        return self._check_figures(files)

    @staticmethod
    def _check_figures(files: dict[str, bytes]) -> list[tuple[str, str]]:
        expected = orc.efficiency_columns(np.linspace(0.0, 1.0, SWEEP_ROWS))
        bad = []
        for name, header in (("fig1.csv", ("eta", "ratio")), ("fig2.csv", ("eta", "Hx", "Hy"))):
            lines = files[name].decode("utf-8").splitlines()
            rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
            if lines[0] != ",".join(header) or rows.shape != (SWEEP_ROWS, len(header)):
                bad.append((INVARIANT, f"{name} has the wrong header or shape"))
            elif not _close(rows, np.column_stack([expected[h] for h in header]), 1e-11):
                bad.append((INVARIANT, f"{name} differs from the closed forms by more than 1e-11"))
        for name in ("fig1.svg", "fig2.svg"):
            try:
                ET.fromstring(files[name])
            except ET.ParseError as err:
                bad.append((INVARIANT, f"{name} is not well-formed XML: {err}"))
        return bad

    def layer_extras(self, per_item):
        return {"cli.figures.bytes_written": statistics.median(self.bytes_written) if self.bytes_written else 0.0}


WORKLOADS = {cls.name: cls for cls in (Entangle, Dynamics, Sweep)}
