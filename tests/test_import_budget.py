"""A run imports only the modules it uses.

Package re-exports resolve on first use (:mod:`repro._exports`), so a
serving run imports no circuit, NN or figure-driver module, the CLI
imports a figure driver only when its command runs, a figure driver
imports no serving code, and the circuit figures import no NN code.  Each check runs in a fresh interpreter, because
the test session itself has long since imported everything.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Most ``repro`` modules a serving run may load (81 before re-exports
#: resolved lazily).
SERVING_MODULE_BUDGET = 50

#: A serving run as stackbench times it (import, then build zoo workloads),
#: plus one short simulated run and its report.
_SERVING_RUN = """
import repro.serve
from repro.models.zoo import BENCHMARK_MODELS, get_workload
from repro.serve import (
    FleetConfig, ServingConfig, WorkloadConfig, format_serving,
    simulate_serving,
)
for name in BENCHMARK_MODELS:
    get_workload(name)
report, _ = simulate_serving(ServingConfig(
    workload=WorkloadConfig(models=("resnet18", "mobilebert"), rps=2000.0,
                            duration_s=0.01, seed=0),
    fleet=FleetConfig(fleet="yoco:2,isaac:2"),
))
format_serving(report)
"""


def loaded_modules(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _not_for_serving(module: str) -> bool:
    """Whether a serving run has no use for ``module``."""
    parts = module.split(".")
    if parts[:2] == ["repro", "nn"]:
        return True
    if parts[:2] == ["repro", "experiments"] and len(parts) > 2:
        return parts[2] != "report"
    if parts[:2] == ["repro", "core"] and len(parts) > 2:
        return parts[2] != "config"
    return module in ("repro.arch.deploy", "repro.arch.pipeline")


def test_serving_run_imports_no_circuit_nn_or_figure_driver():
    modules = loaded_modules(_SERVING_RUN)
    assert [m for m in modules if _not_for_serving(m)] == []


def test_serving_import_stays_within_budget():
    modules = loaded_modules("import repro.serve")
    assert len(modules) <= SERVING_MODULE_BUDGET, modules


def test_serve_command_imports_no_figure_driver():
    modules = loaded_modules(
        "from repro.cli import main\n"
        "main(['serve', '--model', 'resnet18', '--chips', '2',"
        " '--rps', '2000', '--duration', '0.01'])"
    )
    assert [m for m in modules if _not_for_serving(m)] == []


def test_cli_import_loads_no_figure_driver():
    modules = loaded_modules("import repro.cli")
    drivers = [
        m for m in modules
        if m.startswith(("repro.experiments.fig", "repro.experiments.table"))
    ]
    assert drivers == []


def test_figure_driver_imports_no_serving_code():
    modules = loaded_modules("import repro.experiments.fig6")
    assert [m for m in modules if m.split(".")[:2] == ["repro", "serve"]] == []


def test_circuit_figures_import_no_nn_stack():
    # Only Fig. 6(f) trains networks; it imports ``repro.nn`` when it runs.
    modules = loaded_modules("import repro.experiments.fig6")
    assert [m for m in modules if m.split(".")[:2] == ["repro", "nn"]] == []
