"""The public names of ``infolab`` and the ones its benchmark and demos use.

The perfbench self-tests are slow and outside the default test run, so this
parses the benchmark's workloads and self-tests and every demo with ``ast``
and checks that each ``infolab`` attribute they reference still resolves,
then runs one seeded block of each benchmark workload's ops and checks.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

import infolab

ROOT = Path(__file__).resolve().parent.parent
CALLERS = [
    ROOT / "perfbench" / "workloads.py",
    ROOT / "perfbench" / "test_perfbench.py",
    *sorted((ROOT / "demos").glob("*.py")),
]

PUBLIC = {
    "CANONICAL_TRIAD", "ConservationReport", "CorrInfoResult", "Direction", "EfficiencyModel",
    "Hamiltonian", "InfoVector", "MeasurementTriad", "ProbDist", "QubitState", "SweepTable",
    "TwoQubitState", "X_DIR", "Y_DIR", "Z_DIR",
    "bell_state", "born_probabilities", "bz_elementary", "bz_measure", "bz_total_closed",
    "conservation_check", "correlation", "correlation_matrix", "density_from_bloch", "evolve",
    "evolve_euler", "i_corr", "ideal_bz_total", "info_condition_entangled", "info_trajectory",
    "info_vector", "max_i_corr", "named_state", "normalization_factor", "outcome_probabilities",
    "partial_trace", "product_state", "random_direction", "random_qubit_state", "random_triad",
    "ratio_sweep", "rotate_triad", "rotation_matrix", "shannon", "thresholds",
    "total_information", "werner_state",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(infolab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def _references(tree):
    """(module, attribute) pairs for every infolab attribute the tree names.

    ``import infolab.x`` binds the bare name ``x`` as well as ``infolab.x``,
    so a parameter named after the submodule it receives (perfbench's
    ``cli``) is checked too.
    """
    modules = {"infolab": "infolab"}
    refs = set()

    def module_of(node):  # the infolab module an expression names, recording what it reads
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = module_of(node.value)
            if base is not None:
                refs.add((base, node.attr))
                if base == "infolab" and _is_submodule(node.attr):
                    return f"infolab.{node.attr}"
        return None

    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("infolab."):
                    modules[alias.asname or alias.name.split(".")[1]] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "infolab":
            refs.update((node.module, alias.name) for alias in node.names)
    for node in nodes:
        if isinstance(node, ast.Attribute):
            module_of(node)
    return refs


def _is_submodule(name):
    return importlib.util.find_spec(f"infolab.{name}") is not None


def test_benchmark_and_demos_reference_live_names():
    missing, seen = [], set()
    for path in CALLERS:
        for module, attr in _references(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add(f"{module}.{attr}")
            if not (hasattr(importlib.import_module(module), attr)
                    or module == "infolab" and _is_submodule(attr)):
                missing.append(f"{path.relative_to(ROOT)}: {module}.{attr}")
    assert not missing
    # the guard reaches each way the benchmark and demos name infolab
    assert {
        "infolab.cli.parse_and_dispatch",
        "infolab.states.density_from_bloch",
        "infolab.infospace.InfoVector",
        "infolab.EfficiencyModel",
        "infolab.efficiency.K_THREE",
    } <= seen


def test_benchmark_ops_pass_their_invariant_checks(monkeypatch, tmp_path):
    # the known max_i_corr shortfall shows as "accuracy" failures on entangle, not here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans, workloads = (importlib.import_module(name) for name in ("spans", "workloads"))
    tracer = spans.Tracer()  # disabled: calls go straight through
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(tmp_path)
        for kind, inputs in workload.make_block(np.random.default_rng(14)):
            failures = workload.check(kind, inputs, workload.run(tracer, kind, inputs))
            assert [f for f in failures if f[0] == workloads.INVARIANT] == [], (name, kind)
