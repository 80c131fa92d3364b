"""Quick self-test of the benchmark on a tiny bundle (about 20 outlets).

Run from the root of a basinflow checkout::

    python3 perfbench/selftest.py

It checks that both modes print every metric ``BENCHMARK.json`` names,
with its unit, and that each correctness check counts a tampered result
or a failing command as a failed operation.  Exit code 0 means all passed.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from bundle import Workload  # noqa: E402

# K=2 so that expand_constraints does real work.
TINY = Workload(20, (1, 3), "per-segment", 1.0, 2)
SEED = 5


def check_metrics(declared: dict, problems: list[str]) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record = run.run_workload("selftest", TINY, SEED, 0.5, trace)
        result = record["result"]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: clean run failed: {record['failures']}")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics {got} differ from "
                            f"BENCHMARK.json {want}")


def rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def bump_first_flow(rows: list[list[str]]) -> None:
    row = next(r for r in rows if r[3] == "flow")
    row[4] = repr(float(row[4]) * 1.001)


def rewrite_summary(session: run.Session, edit) -> None:
    path = session.results / "run_summary.json"
    doc = json.loads(path.read_text())
    edit(doc["solution"])
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def check_tampering(problems: list[str]) -> None:
    session = run.Session("selftest", TINY, SEED, run.Clock())
    session.work.mkdir(parents=True, exist_ok=True)
    session.setup_child()
    ok, _ = session.estimate_child()
    ok_report, _ = session.report_child()
    if not (ok and ok_report) or session.failed:
        problems.append(f"clean reference run failed: {session.failures}")
        return

    def expect(what: str, reason: str, check) -> None:
        seen, failed = len(session.failures), session.failed
        passed = check()
        new = session.failures[seen:]
        if passed or session.failed != failed + 1 or not any(reason in f for f in new):
            problems.append(f"{what}: not counted as failed ({reason!r}): {new}")

    def fresh_estimate(first: bool = False):
        session.estimate_child()
        if first:
            session.reference = None

    # Byte-identity against the first run.
    fresh_estimate()
    rewrite_csv(session.results / "solution.csv", bump_first_flow)
    expect("edited solution.csv", "solution.csv differs",
           lambda: session.check_estimate(0))
    # Recovery against the ground truth, judged as if it were the first run.
    reference = session.reference
    fresh_estimate(first=True)
    rewrite_csv(session.results / "solution.csv", bump_first_flow)
    expect("wrong flow", "recovery_max_rel_err", lambda: session.check_estimate(0))
    session.reference = reference
    fresh_estimate(first=True)
    rewrite_summary(session, lambda s: s.update(converged=False))
    expect("not converged", "converged", lambda: session.check_estimate(0))
    fresh_estimate(first=True)
    rewrite_summary(session, lambda s: s.update(constraint_residual=1.0))
    expect("large residual", "constraint_residual", lambda: session.check_estimate(0))
    session.reference = reference
    # A report that disagrees with the estimate's fit report.
    fresh_estimate()
    session.report_child()
    rewrite_csv(session.report_out / "fit_report.csv",
                lambda rows: rows[1].__setitem__(3, "0.5"))
    expect("edited fit_report.csv", "differs", lambda: session.check_report(0))
    # A command that exits non-zero: a network file that does not parse.
    (session.bundle / "network.json").write_text("{")
    expect("non-zero exit", "exit code 1", lambda: session.estimate_child()[0])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    check_metrics(declared, problems)
    check_tampering(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
