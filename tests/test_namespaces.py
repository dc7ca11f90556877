"""The lazy package namespaces keep the eager ones' contract.

Every ``repro`` package re-exports its names through one
``_EXPORTS`` table (:mod:`repro._lazy`).  Whatever the access path —
attribute, ``dir()``, ``from pkg import *`` — each exported name must
resolve to the very object its defining module holds.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def _defining_module(package, name):
    for module, names in package._EXPORTS.items():
        if name in names:
            return importlib.import_module(module)
    return package


def test_every_package_is_covered():
    assert len(PACKAGES) == 14
    assert {"repro.core.pieo", "repro.core.pifo",
            "repro.dictionary"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_are_written_once(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported))
    tabled = [item for names in package._EXPORTS.values()
              for item in names]
    assert exported[:len(tabled)] == tabled


@pytest.mark.parametrize("name", PACKAGES)
def test_getattr_resolves_to_the_defining_module(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        value = getattr(package, export)
        assert value is getattr(_defining_module(package, export),
                                export), export


def test_dir_lists_every_export_before_it_is_loaded():
    # A fresh interpreter: no exported name has been resolved yet.
    code = ("import importlib\n"
            f"for name in {PACKAGES!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    tabled = {item for names in package._EXPORTS.values()\n"
            "              for item in names}\n"
            "    assert not tabled & vars(package).keys(), name\n"
            "    assert set(package.__all__) <= set(dir(package)), name\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(repro.__path__[0])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(
            _defining_module(package, export), export), export


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    assert not hasattr(package, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
