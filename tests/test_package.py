import tomllib
from pathlib import Path

import pytest

import basinflow
from basinflow import cli

from pipeline_util import fresh_python


def test_public_names_resolve():
    # every exported name is an attribute, and a star import binds them all
    missing = [name for name in basinflow.__all__ if not hasattr(basinflow, name)]
    assert missing == []
    assert len(set(basinflow.__all__)) == len(basinflow.__all__)
    namespace = {}
    exec("from basinflow import *", namespace)
    assert set(basinflow.__all__) <= namespace.keys()


def run_fresh(probe: str) -> str:
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    package; returns its stdout."""
    result = fresh_python("-c", probe)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_commands_leave_numpy_testing_and_f2py_unexecuted(tmp_path):
    # scipy.sparse's array-API shim would execute both at start-up; the
    # package makes them lazy, and they still work on first use
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "30", "--seed", "7",
                     "--out", str(bundle)]) == 0
    config, results = bundle / "config.json", bundle / "results"
    probe = f"""
import sys
from basinflow import cli
assert cli.main(["estimate", "--config", {str(config)!r}]) == 0
assert cli.main(["report", "--config", {str(config)!r}, "--solution",
                 {str(results / "solution.csv")!r}, "--output-dir",
                 {str(tmp_path / "rep")!r}]) == 0
print(sorted({{"numpy.f2py.crackfortran", "numpy.testing._private.utils"}}
             & sys.modules.keys()))
import numpy
numpy.testing.assert_allclose(1.0, 1.0)
print(callable(numpy.f2py.run_main))
"""
    assert run_fresh(probe).splitlines()[-2:] == ["[]", "True"]


def test_report_leaves_numpy_ma_and_polynomial_unexecuted(tmp_path):
    # The shim would execute numpy.ma and numpy.polynomial too; both still
    # work on first use.
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "30", "--seed", "7",
                     "--out", str(bundle)]) == 0
    probe = f"""
import sys
from basinflow import cli
assert cli.main(["report", "--config", {str(bundle / "config.json")!r},
                 "--solution", {str(bundle / "ground_truth.csv")!r},
                 "--output-dir", {str(tmp_path / "rep")!r}]) == 0
print(sorted({{"numpy.ma.core", "numpy.polynomial.polynomial"}}
             & sys.modules.keys()))
import numpy
print(numpy.ma.masked_array([1.0, 2.0]).sum() == 3.0,
      numpy.polynomial.Polynomial([1, 2])(1.0) == 3.0)
"""
    assert run_fresh(probe).splitlines()[-2:] == ["[]", "True True"]


@pytest.mark.parametrize("name", basinflow.LAZY_MODULES)
def test_lazy_module_imported_first_is_kept(name):
    # A lazy module imported before the package keeps its identity.
    probe = f"""
import sys
import {name}
first = sys.modules[{name!r}]
import basinflow
print(sys.modules[{name!r}] is first, {name} is first)
"""
    assert run_fresh(probe).split() == ["True", "True"]


def test_console_script_is_the_process_entry():
    pyproject = Path(basinflow.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["basinflow"]
    module, _, name = target.partition(":")
    assert module == cli.__name__ and getattr(cli, name) is cli.run
