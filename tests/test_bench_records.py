"""Consistency of the committed A/B records ``BENCH_*.json`` at the repository
root with ``BENCHMARK.json``: the claim names a declared workload and
end-to-end metric, every workload and metric holds one parent and one change
run per pair, and every recorded median and quartile is the statistic of its
runs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# runs and statistics are both rounded to 4 decimals, so the statistic of the
# rounded runs can differ from the recorded one by one unit in the last place
TOLERANCE = 1e-4 + 1e-9


def load(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claim_names_a_declared_workload_and_end_to_end_metric(path):
    claim = load(path)["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_workload_and_metric_has_one_run_per_pair(path):
    record = load(path)
    for workload in WORKLOADS:
        for metric in END_TO_END:
            for side in ("parent", "change"):
                runs = record["workloads"][workload][metric][side]["runs"]
                assert len(runs) == record["pairs"], (workload, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_medians_and_quartiles_are_the_statistics_of_the_runs(path):
    record = load(path)
    assert record["quartiles"] == "statistics.quantiles(runs, n=4, method='inclusive')"
    for workload in WORKLOADS:
        for metric in END_TO_END:
            for side in ("parent", "change"):
                stats = record["workloads"][workload][metric][side]
                q1, _, q3 = statistics.quantiles(stats["runs"], n=4, method="inclusive")
                want = {"median": statistics.median(stats["runs"]), "q1": q1, "q3": q3}
                for name, value in want.items():
                    assert abs(stats[name] - value) <= TOLERANCE, (workload, metric, side, name)
