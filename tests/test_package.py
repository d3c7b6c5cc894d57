"""The package root: public names resolved on first access (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import evpos


def fresh_modules(code: str) -> list:
    """The evpos modules a new interpreter holds after running `code`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evpos.__file__)))
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if 'evpos' in m)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", [n for n in evpos.__all__ if n != "__version__"])
def test_every_public_name_is_its_module_object(name):
    module = importlib.import_module(f"evpos.{evpos._OWNER[name]}")
    value = getattr(evpos, name)
    assert value is getattr(module, name)
    if hasattr(value, "__qualname__"):  # a class or function is defined there
        assert value.__module__ == module.__name__


def test_all_and_dir_read_the_one_table():
    assert evpos.__all__ == ["__version__", *evpos._OWNER]
    assert len(set(evpos.__all__)) == len(evpos.__all__)
    assert set(evpos.__all__) <= set(dir(evpos))
    assert dir(evpos) == sorted(dir(evpos))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from evpos import *", namespace)
    assert {name: namespace[name] for name in evpos.__all__} == {
        name: getattr(evpos, name) for name in evpos.__all__
    }


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        evpos.no_such_name  # noqa: B018
    assert not hasattr(evpos, "MAX_GRID_POINTS")  # public in its module only
    with pytest.raises(ImportError):
        exec("from evpos import no_such_name", {})


def test_package_import_loads_no_submodule():
    assert fresh_modules("import evpos; evpos.__version__") == ["evpos"]
    # an unimported submodule is no attribute, so `from evpos import` imports it
    assert fresh_modules("import evpos; assert not hasattr(evpos, 'presets')") == ["evpos"]


def test_first_access_loads_the_owner_only():
    loaded = fresh_modules("import evpos; evpos.classify")
    assert "evpos.irreducibility" in loaded
    assert not {"evpos.perturbation", "evpos.presets", "evpos.stepfun"} & set(loaded)


def test_from_import_still_imports_submodules():
    loaded = fresh_modules(
        "from evpos import cli, parallel, perturbation; "
        "assert (cli.__name__, parallel.__name__, perturbation.__name__) == "
        "('evpos.cli', 'evpos.parallel', 'evpos.perturbation')"
    )
    assert {"evpos.cli", "evpos.parallel", "evpos.perturbation"} <= set(loaded)
