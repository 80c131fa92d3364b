import os
import subprocess
import sys
from pathlib import Path

import basinflow
from basinflow import cli


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
    src = str(Path(basinflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
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


def test_numpy_testing_imported_first_is_kept():
    probe = """
import sys
import numpy.testing
first = sys.modules["numpy.testing"]
import basinflow
print(sys.modules["numpy.testing"] is first, numpy.testing is first)
"""
    assert run_fresh(probe).split() == ["True", "True"]
