import json
import os
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


def run_fresh(probe: str, **environ: str | None) -> str:
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    package, with ``fresh_python``'s ``environ``; returns its stdout."""
    result = fresh_python("-c", probe, **environ)
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


def test_commands_leave_statistics_unimported(tmp_path):
    # The fit report's medians are measurement.median's, so neither start-up
    # nor a command loads statistics, or the fractions and decimal it needs.
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "30", "--seed", "7",
                     "--out", str(bundle)]) == 0
    config, results = bundle / "config.json", bundle / "results"
    probe = f"""
import sys
def loaded():
    print("loaded", sorted({{"statistics", "fractions", "decimal"}}
                           & sys.modules.keys()))
from basinflow import cli
loaded()
assert cli.main(["estimate", "--config", {str(config)!r}]) == 0
loaded()
assert cli.main(["report", "--config", {str(config)!r}, "--solution",
                 {str(results / "solution.csv")!r}, "--output-dir",
                 {str(tmp_path / "rep")!r}]) == 0
loaded()
"""
    lines = run_fresh(probe).splitlines()
    assert [line for line in lines if line.startswith("loaded")] == \
        ["loaded []"] * 3


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


@pytest.mark.parametrize("k_steps", ["1", "3"])
def test_estimate_leaves_numpy_ma_and_polynomial_unexecuted(tmp_path, k_steps):
    # np.median and scipy's dia matrices would execute numpy.ma; K=3 lifts
    # the relation rows onto the horizon as well.
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "30", "--seed", "7",
                     "--out", str(bundle)]) == 0
    probe = f"""
import sys
from basinflow import cli
assert cli.main(["estimate", "--config", {str(bundle / "config.json")!r},
                 "--k-steps", {k_steps!r}]) == 0
print(sorted({{"numpy.ma.core", "numpy.polynomial.polynomial"}}
             & sys.modules.keys()))
"""
    assert run_fresh(probe).splitlines()[-1] == "[]"


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
def test_blas_runs_on_one_thread():
    # numpy's and scipy's OpenBLAS copies would each start a worker pool
    # sized to the CPUs; the package caps both before numpy loads.
    probe = """
import os
import basinflow.cli
import scipy.sparse.linalg
print(len(os.listdir("/proc/self/task")))
"""
    assert run_fresh(probe, OPENBLAS_NUM_THREADS=None).split() == ["1"]


def test_caller_blas_thread_count_wins():
    probe = "import os, basinflow; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(probe, OPENBLAS_NUM_THREADS="2").split() == ["2"]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A 100-outlet mainstem at K=12 has enough variables that threaded
    # OpenBLAS splits a dot product over them by thread.
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "100", "--branching", "1",
                     "--land-per-outlet", "1", "1", "--seed", "7",
                     "--out", str(bundle)]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        result = fresh_python(
            "-m", "basinflow.cli", "estimate", "--config",
            str(bundle / "config.json"), "--k-steps", "12", "--output-dir",
            str(out), OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    names = sorted(path.name for path in outputs[0].iterdir())
    assert names == sorted(path.name for path in outputs[1].iterdir())
    for name in names:
        if name == "timings.json":
            continue
        # run_summary.json records its own output directory.
        one, two = ((out / name).read_bytes().replace(
            json.dumps(str(out)).encode(), b'"-"') for out in outputs)
        assert one == two, name


def test_console_script_is_the_process_entry():
    pyproject = Path(basinflow.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["basinflow"]
    module, _, name = target.partition(":")
    assert module == cli.__name__ and getattr(cli, name) is cli.run
