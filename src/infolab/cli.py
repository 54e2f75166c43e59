"""Command-line front end.

Subcommands: ``measure {shannon|bz}``, ``qubit info-vector``, ``evolve``,
``efficiency {sweep|thresholds|figures}``, ``entangle {icorr|check}`` and
``verify``.

Conventions:

* primary results go to stdout, one line; diagnostics (n/k, per-direction
  detail, drift) go to stderr;
* exit code 0 on success, 2 on usage errors (unknown subcommand, malformed
  vectors or probabilities, out-of-range efficiency), 1 on computation or
  I/O errors; every error is a single stderr line starting with ``error:``;
* values are printed as ``round(value, precision)`` (``--precision``,
  default 6); CSV files use 12-significant-digit formatting and are byte
  stable for identical invocations; every CSV table (``evolve``,
  ``efficiency sweep``, ``efficiency figures``) is formatted in ``_csv``;
* single-qubit states are Bloch triples ``rx,ry,rz`` or named states
  (``plus-x`` ... ``minus-z``, ``mixed``); two-qubit states are
  ``bell:{phi+,phi-,psi+,psi-}``, ``werner:W`` or ``product:S1;S2``;
* direction vectors are rescaled to unit length, so ``--d1 1,1,0`` works;
* ``INFOLAB_SEED`` overrides the default seed (42) wherever randomness is
  used; ``--seed`` overrides both.

``build_parser()`` builds the argument parser once per process and returns
that same parser on every call, so in-process callers of
``parse_and_dispatch`` do not rebuild it.  Callers must not mutate what it
returns.  Handlers look up module globals when they run, so a patched
global takes effect on the next call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import _svg
from . import efficiency as eff
from .entanglement import (
    TwoQubitState,
    bell_state,
    i_corr,
    info_condition_entangled,
    product_state,
    werner_state,
)
from .infospace import (
    Hamiltonian,
    _trajectory,
    evolve,
    info_vector,
    total_information,
)
from .measures import bz_measure, shannon
from .states import (
    CANONICAL_TRIAD,
    DEFAULT_SEED,
    Direction,
    MeasurementTriad,
    ProbDist,
    QubitState,
    _finite_real,
    _in_range,
    _integer,
    density_from_bloch,
    named_state,
)

PROG = "infolab"
MAX_GRID_POINTS = 1_000_000  # larger --times/--steps grids are refused before allocation
_CSV_BLOCK_ROWS = 4096


class UsageError(Exception):
    """Bad invocation: unknown command or malformed user input (exit 2)."""


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError raised by validating user input as a UsageError (exit 2)."""
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through our exit scheme
        raise UsageError(message)


def _fmt(value: float, precision: int) -> str:
    return str(round(float(value), precision) + 0.0)  # + 0.0 folds -0.0 into 0.0


def _fmt_vector(values, precision: int) -> str:
    return ",".join(_fmt(v, precision) for v in values)


def _parse_floats(text: str, count: int | None, what: str) -> np.ndarray:
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise UsageError(f"malformed {what} {text!r}: expected comma-separated numbers")
    if count is not None and values.size != count:
        raise UsageError(f"{what} {text!r} must have {count} components")
    return values


def _parse_state(text: str) -> QubitState:
    with _usage_errors():
        if "," not in text:
            return named_state(text)
        return density_from_bloch(_parse_floats(text, 3, "state"))


def _parse_two_qubit_state(text: str) -> TwoQubitState:
    kind, _, rest = text.partition(":")
    with _usage_errors():
        if kind == "bell":
            return bell_state(rest)
        if kind == "werner":
            try:
                weight = float(rest)
            except ValueError:
                raise UsageError(f"malformed Werner weight {rest!r}")
            return werner_state(weight)
        if kind == "product":
            first, sep, second = rest.partition(";")
            if not sep:
                raise UsageError("product state needs two parts: product:S1;S2")
            return product_state(_parse_state(first), _parse_state(second))
    raise UsageError(
        f"unknown two-qubit state {text!r} (use bell:KIND, werner:W or product:S1;S2)"
    )


def _parse_direction(text: str, what: str) -> Direction:
    with _usage_errors():
        return Direction.normalized(_parse_floats(text, 3, what))


def _parse_triad(text: str) -> MeasurementTriad:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("triad must be three colon-separated vectors, e.g. 1,0,0:0,1,0:0,0,1")
    with _usage_errors():
        return MeasurementTriad([_parse_direction(part, "triad direction").vec for part in parts])


def _parse_times(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("times must be start:stop:step, e.g. 0:10:0.1")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise UsageError(f"malformed times {text!r}")
    if not np.all(np.isfinite((start, stop, step))):
        raise UsageError(f"times {text!r} must be finite")
    if step <= 0.0 or stop < start:
        raise UsageError(f"times {text!r} must have stop >= start and step > 0")
    span = (stop - start) / step + 1e-9
    with _usage_errors():  # a float count: an overflowing span reads inf, not 300 digits
        points = _in_range(float(np.floor(span)) + 1.0, "--times point count", 1, MAX_GRID_POINTS)
    return start + step * np.arange(int(points))


def _write_text(path: str | Path | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        Path(path).write_text(content, encoding="utf-8", newline="")


def _csv(header, columns) -> str:
    """Header line plus one line per row, every cell as ``%.12g``.

    One ``%`` formats a block of rows with the row template repeated per row;
    ``%.12g`` and ``f"{v:.12g}"`` run the same float-to-string conversion.
    """
    row_format = ",".join(["%.12g"] * len(columns))
    lines = [",".join(header)]
    # one block of rows at a time: stacking and converting the whole table
    # would hold a Python float per cell, more memory than the CSV text itself
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
        lines.append("\n".join([row_format] * len(block)) % tuple(block.ravel().tolist()))
    return "\n".join(lines) + "\n"


# -- subcommand handlers -----------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> int:
    with _usage_errors():
        dist = ProbDist(_parse_floats(args.probs, None, "probabilities"))
    value = (shannon if args.kind == "shannon" else bz_measure)(dist)
    k = math.log2(dist.n)
    if not 0.0 <= value <= k + 1e-12:  # a wrong result, not a usage error: exit 1
        raise ValueError(f"{args.kind} value {value!r} outside [0, {k!r}]")
    print(_fmt(value, args.precision))
    print(f"n={dist.n} k={_fmt(k, args.precision)}", file=sys.stderr)
    return 0


def _cmd_info_vector(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    triad = _parse_triad(args.triad) if args.triad else CANONICAL_TRIAD
    iv = info_vector(state, triad)
    print(_fmt_vector((iv.i1, iv.i2, iv.i3), args.precision))
    print(f"I_total={_fmt(total_information(iv), args.precision)}", file=sys.stderr)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    with _usage_errors():
        h = Hamiltonian.from_pauli_coefficients(_parse_floats(args.hamiltonian, 3, "hamiltonian"))
    triad = _parse_triad(args.triad) if args.triad else CANONICAL_TRIAD
    with _usage_errors():
        t = _finite_real(args.t, "--t")

    if not args.report_conservation:
        for flag, value in (("--times", args.times), ("--out", args.out), ("--triad", args.triad)):
            if value is not None:
                raise UsageError(f"{flag} requires --report-conservation")
        print(_fmt_vector(evolve(state, h, t).bloch, args.precision))
        return 0

    if args.times is None:
        raise UsageError("--report-conservation requires --times start:stop:step")
    vectors, report = _trajectory(state, h, triad, _parse_times(args.times))
    columns = (report.times, *vectors.T, report.i_total_values)
    _write_text(args.out, _csv(("t", "i1", "i2", "i3", "I_total"), columns))
    if args.out is not None:
        print(_fmt_vector(evolve(state, h, t).bloch, args.precision))
    print(f"max_drift={report.max_drift:.3e}", file=sys.stderr)
    return 0


def _cmd_efficiency_sweep(args: argparse.Namespace) -> int:
    with _usage_errors():
        steps = _integer(args.steps, "--steps", 2, MAX_GRID_POINTS)
        table = eff.ratio_sweep(args.min, args.max, steps)
    table.validate()  # never emit a CSV that violates its own row identities
    _write_text(args.out, _csv(eff.SweepTable.HEADER, table.columns()))
    return 0


def _cmd_efficiency_thresholds(args: argparse.Namespace) -> int:
    lo, hi = eff.thresholds()
    print(f"{_fmt(lo, args.precision)} {_fmt(hi, args.precision)}")
    return 0


def reproduce_figures(out_dir: str | Path) -> list[Path]:
    """Write fig1.csv/fig1.svg (ratio vs eta) and fig2.csv/fig2.svg (Shannon
    uncertainties vs eta) into ``out_dir``; returns the four paths.

    Both CSVs are derived from a validated 201-point sweep of [0, 1]; output
    is byte stable for fixed inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = eff.ratio_sweep(0.0, 1.0, 201)
    table.validate()
    lo, hi = eff.thresholds()

    paths = [out / name for name in ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg")]
    contents = (
        _csv(("eta", "ratio"), (table.eta, table.ratio)),
        _svg.line_chart(
            title="Quadratic information total over capacity",
            x_label="eta",
            y_label="I_total / k",
            series=[("I_total / k", table.eta, table.ratio)],
            h_lines=(1.0,),
            v_lines=(lo, hi),
            points=((lo, 1.0, f"{lo:.2f}"), (hi, 1.0, f"{hi:.2f}")),
        ),
        _csv(("eta", "Hx", "Hy"), (table.eta, table.hx, table.hy)),
        _svg.line_chart(
            title="Shannon uncertainty per direction",
            x_label="eta",
            y_label="bits",
            series=[("Hx", table.eta, table.hx), ("Hy = Hz", table.eta, table.hy)],
            points=(
                (0.5, 1.0, "(1/2, 1)"),
                (2.0 / 3.0, float(np.log2(3.0)), "(2/3, log2 3)"),
            ),
        ),
    )
    for path, content in zip(paths, contents):
        _write_text(path, content)
    return paths


def _cmd_efficiency_figures(args: argparse.Namespace) -> int:
    for path in reproduce_figures(args.out_dir):
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_entangle_icorr(args: argparse.Namespace) -> int:
    state = _parse_two_qubit_state(args.state)
    result = i_corr(state, _parse_direction(args.d1, "d1"), _parse_direction(args.d2, "d2"))
    print(_fmt(result.total_bits, args.precision))
    print(
        f"E1={_fmt(result.correlations[0], args.precision)} "
        f"E2={_fmt(result.correlations[1], args.precision)} "
        f"I1={_fmt(result.info_bits[0], args.precision)} "
        f"I2={_fmt(result.info_bits[1], args.precision)}",
        file=sys.stderr,
    )
    return 0


def _cmd_entangle_check(args: argparse.Namespace) -> int:
    state = _parse_two_qubit_state(args.state)
    entangled, result = info_condition_entangled(state)
    print(f"{str(entangled).lower()} {_fmt(result.total_bits, args.precision)}")
    print(
        f"d1={_fmt_vector(result.d1.vec, args.precision)} "
        f"d2={_fmt_vector(result.d2.vec, args.precision)}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # imported here, so no other subcommand loads the invariant suite

    results = verify.run_all(args.seed)
    failures = 0
    for check in results:
        if check.passed:
            print(f"PASS {check.name}: {check.detail}")
        else:
            failures += 1
            print(f"FAIL {check.name}: {check.detail}")
    print(f"{len(results) - failures}/{len(results)} properties passed (seed {args.seed})")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The process-wide parser; built on first use and shared, so do not mutate it."""
    parser = _Parser(prog=PROG, description="Information measures for qubit experiments")
    parser.add_argument("--seed", type=int, default=None, help="override INFOLAB_SEED")
    parser.add_argument(
        "--precision", type=int, default=6, help="decimal places for printed values"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    measure = sub.add_parser("measure", help="evaluate an information measure")
    measure.add_argument("kind", choices=("shannon", "bz"))
    measure.add_argument("--probs", required=True, help="comma-separated probabilities")
    measure.set_defaults(handler=_cmd_measure)

    qubit = sub.add_parser("qubit", help="single-qubit utilities")
    qubit_sub = qubit.add_subparsers(dest="qubit_command", required=True)
    ivec = qubit_sub.add_parser("info-vector", help="information vector of a state")
    ivec.add_argument("--state", required=True)
    ivec.add_argument("--triad", default=None, help="three colon-separated directions")
    ivec.set_defaults(handler=_cmd_info_vector)

    ev = sub.add_parser("evolve", help="unitary evolution under h.sigma")
    ev.add_argument("--state", required=True)
    ev.add_argument("--hamiltonian", required=True, help="Pauli coefficients hx,hy,hz")
    ev.add_argument("--t", type=float, required=True, help="evolution time (hbar = 1)")
    ev.add_argument("--triad", default=None)
    ev.add_argument("--report-conservation", action="store_true")
    ev.add_argument("--times", default=None, help="start:stop:step grid for the report")
    ev.add_argument("--out", default=None, help="CSV destination (default stdout)")
    ev.set_defaults(handler=_cmd_evolve)

    effp = sub.add_parser("efficiency", help="non-ideal detection model")
    eff_sub = effp.add_subparsers(dest="efficiency_command", required=True)
    sweep = eff_sub.add_parser("sweep", help="tabulate the model over an eta grid")
    sweep.add_argument("--min", type=float, default=0.0)
    sweep.add_argument("--max", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=201)
    sweep.add_argument("--out", default=None, help="CSV destination (default stdout)")
    sweep.set_defaults(handler=_cmd_efficiency_sweep)
    thresh = eff_sub.add_parser("thresholds", help="where I_total/k crosses 1")
    thresh.set_defaults(handler=_cmd_efficiency_thresholds)
    figures = eff_sub.add_parser("figures", help="write the two reference charts")
    figures.add_argument("--out-dir", required=True)
    figures.set_defaults(handler=_cmd_efficiency_figures)

    entangle = sub.add_parser("entangle", help="two-qubit correlation information")
    ent_sub = entangle.add_subparsers(dest="entangle_command", required=True)
    icorr = ent_sub.add_parser("icorr", help="i_corr for an orthogonal direction pair")
    icorr.add_argument("--state", required=True)
    icorr.add_argument("--d1", required=True)
    icorr.add_argument("--d2", required=True)
    icorr.set_defaults(handler=_cmd_entangle_icorr)
    check = ent_sub.add_parser("check", help="information condition for entanglement")
    check.add_argument("--state", required=True)
    check.set_defaults(handler=_cmd_entangle_check)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.set_defaults(handler=_cmd_verify)

    return parser


# flags whose single value may start with "-" (negative vector components);
# folded into --flag=value form so argparse does not mistake them for options
_VALUE_FLAGS = frozenset(
    {"--probs", "--state", "--d1", "--d2", "--hamiltonian", "--triad", "--times"}
)


def _merge_value_flags(argv) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def _resolve_seed(flag_value: int | None) -> int:
    env = os.environ.get("INFOLAB_SEED")
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    elif env is not None:
        seed, source = env, "INFOLAB_SEED"
        with contextlib.suppress(ValueError):  # text that is not an integer is refused as is
            seed = int(env)
    else:
        return DEFAULT_SEED
    with _usage_errors():  # numpy's generators take non-negative seeds only
        return _integer(seed, source, 0)


def parse_and_dispatch(argv) -> int:
    """Parse argv and run the selected subcommand, mapping errors to exit codes."""
    try:
        args = build_parser().parse_args(_merge_value_flags(argv))
        args.seed = _resolve_seed(args.seed)
        with _usage_errors():
            args.precision = _integer(args.precision, "--precision", 1)
        return args.handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
