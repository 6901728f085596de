"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with a tiny job list (one job per class), untraced
and traced. Asserts that the result line names exactly the metrics of
BENCHMARK.json with their units, that every answer checks, that the
error figures equal their seed values in expected.json, and that the
traced run wrote its span file with one balanced job span per job.
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            report, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, report["failures"]
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (workload, trace, set(got) ^ set(units))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            assert report["error_rate"] == expected["seed_error_rate"][workload]
            assert report["known_defects"]["failed"] == \
                expected["seed_known_defect_failures"][workload], report["known_defects"]
            if trace:
                assert report["job_spans_checked"] == report["jobs"], report
                spans = json.loads((ROOT / report["span_file"]).read_text())
                assert spans["spans"] and spans["span_fields"][1] == "name"
            else:
                assert "tail_percentile" in report and "environment" in report
            print(f"ok {workload} trace={trace}: {result['attempted']} jobs checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
