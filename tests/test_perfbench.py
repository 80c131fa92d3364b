"""The library calls the benchmark in ``perfbench/`` makes, on a tiny bundle.

``perfbench/bundle.py`` writes its bundles with the generator, the dataset
writers and ``report.capability_entity``, and ``perfbench/run.py`` wraps
public functions of every module by name and reads the rows that
``expand_constraints`` returns.  Renaming or deleting any of them fails
this test, not only the benchmark's own self-test.  Nothing under
``perfbench/`` is changed.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bundle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_bundle_estimate_and_report_in_process(tmp_path):
    # K=2, so that expand_constraints lifts the rows the probe counts
    spec = bundle.Workload(6, (1, 2), "per-segment", 1.0, 2)
    meta = bundle.make_bundle(spec, 3, tmp_path)
    assert meta["outlets"] == 6 and meta["rhs_inf_norm"] > 0
    config, results = tmp_path / "config.json", tmp_path / "results"

    tracer = tracing.Tracer()
    code, _, detail = run.in_process_cli(
        ["estimate", "--config", str(config), "--output-dir", str(results)],
        tracer)
    assert (code, detail) == (0, "")
    counts = tracer.counts()
    assert counts["measurement.expand.rows"] > 0
    assert counts["measurement.expand.coefficients"] > 0
    assert counts["estimator.factor.calls"] > 0
    assert run.accuracy(results, tmp_path)["recovery_max_rel_err"] \
        <= run.RECOVERY_GATE

    code, _, detail = run.in_process_cli(
        ["report", "--solution", str(results / "solution.csv"),
         "--config", str(config), "--output-dir", str(tmp_path / "report")],
        tracing.Tracer())
    assert (code, detail) == (0, "")
    assert (tmp_path / "report" / "fit_report.csv").read_bytes() \
        == (results / "fit_report.csv").read_bytes()
