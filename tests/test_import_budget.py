"""What a run imports: entry modules load only the modules they execute.

Every package namespace is lazy (:mod:`repro._lazy`), so importing an
experiment module must not compile the hardware models, the baselines,
the analyzers or the other figures.  Each case imports one module in a
fresh interpreter and inspects ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
EXPERIMENTS = os.path.join(SRC, "repro", "experiments")

#: Modules no simulation run executes.
FORBIDDEN = (
    "repro.hw",
    "repro.baselines",
    "repro.conformance",
    "repro.dictionary",
    "repro.obs.analyze",
    "repro.obs.export",
    "repro.core.pieo",
    "repro.core.pifo",
)

#: Shared experiment helpers; every other experiment module is a figure.
HELPERS = {"__init__", "__main__", "runner", "hier_common"}

FIGURES = tuple(sorted(
    f"repro.experiments.{name[:-3]}" for name in os.listdir(EXPERIMENTS)
    if name.endswith(".py") and name[:-3] not in HELPERS))

#: Entry module -> most ``repro`` modules it may load.
BUDGETS = {
    "repro.sim.events": 10,
    "repro.experiments.hier_common": 30,
    "repro.experiments.incast": 50,
    "repro.experiments.fct": 60,
}


def _loaded_after_import(module: str):
    code = ("import importlib, json, sys\n"
            f"importlib.import_module({module!r})\n"
            "print(json.dumps(sorted(name for name in sys.modules\n"
            "    if name == 'repro' or name.startswith('repro.'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def _under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_figure_list_is_discovered():
    assert "repro.experiments.fig11_rate_limit" in FIGURES
    assert "repro.experiments.incast" in FIGURES
    assert "repro.experiments.hier_common" not in FIGURES


@pytest.mark.parametrize("module", sorted(BUDGETS))
def test_import_loads_only_what_runs(module):
    loaded = _loaded_after_import(module)
    assert module in loaded
    forbidden = [name for name in loaded
                 if any(_under(name, package) for package in FORBIDDEN)]
    assert forbidden == []
    figures = [name for name in loaded
               if name in FIGURES and name != module]
    assert figures == []
    assert len(loaded) <= BUDGETS[module], loaded
