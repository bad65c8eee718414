"""Tests of the benchmark itself: its checker, its span arithmetic and its metric names.

Run them by path: ``PYTHONPATH=src python -m pytest -q perfbench/tests/check_benchmark.py``.
The file name keeps them out of the repository's default test collection on
purpose. Work done in the pytest process before ``tests/`` runs changes which
object ids get reused, and so which of the repository's tests the id-keyed
table cache in ``crossed_pairs`` fails.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCES, run_operations  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def corrupt(value):
    """A wrong answer of the same shape: bump the first integer found."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple) and not value:
        return (1,)
    if isinstance(value, (tuple, list)):
        return type(value)([corrupt(value[0])] + list(value[1:]))
    raise TypeError(type(value))


def small_bar_operations():
    """The bar_cohomology operations on C_2 acting on Z/4 by negation (cheap)."""
    ops = workloads.bar_operations(workloads.bar_setup(0), 0, [])
    return [op for op in ops if "C2_Z4neg" in op.name]


def test_checker_accepts_the_real_answers():
    ops = small_bar_operations()
    out = run_operations(ops)
    assert out["attempted"] == len(ops) == 3 + 3 * workloads.QUERIES_PER_GROUP
    assert (out["failed"], out["wrong"]) == (0, 0), out["failures"]


def test_checker_reports_corrupted_answers_as_failures():
    ops = small_bar_operations()
    bad = [workloads.Operation(op.name, lambda op=op: corrupt(op.run()), op.check) for op in ops]
    out = run_operations(bad)
    assert out["failed"] == out["wrong"] == len(ops)
    assert {f["op"] for f in out["failures"]} == {op.name for op in ops}


def test_raised_operation_is_a_failure_but_not_a_wrong_answer():
    def refuse():
        raise ValueError("refused")
    ops = [workloads.Operation("refused", refuse, workloads.expect_true),
           workloads.Operation("fine", lambda: True, workloads.expect_true)]
    out = run_operations(ops)
    assert (out["attempted"], out["failed"], out["wrong"]) == (2, 1, 0)
    assert out["failures"][0]["error"] == "ValueError: refused"


def test_workload_checks_catch_corrupted_results():
    assert workloads.check_prop63([((1,), (1,)), ((0,), (0,))]) is None
    assert workloads.check_prop63([((1,), (1,)), ((0,), (1,))]) is not None
    assert workloads.check_prop63([]) is not None
    assert workloads.check_all_zero([(0,), (0,), (0,)]) is None
    assert workloads.check_all_zero([(0,), (1,), (0,)]) is not None
    good = {"chi_normalizes_A": True, "chi_has_grades": True,
            "chi_multiplicative_mod_UA": True, "end_action_exact": True,
            "tau_matches_matrix_structure_mod_inner": True, "rank_over_R": 4,
            "expected_rank": 4, "tau_class": (0,)}
    assert workloads.check_deuring(good) is None
    assert workloads.check_deuring(dict(good, chi_has_grades=False)) is not None
    assert workloads.check_deuring(dict(good, rank_over_R=2)) is not None
    assert workloads.check_deuring(dict(good, tau_class=(1,))) is not None
    split = {"class": (0,), "preimage": True, "chi_normalizes_A": True,
             "chi_multiplicative_mod_UA": True}
    assert workloads.check_splitting(split) is None
    assert workloads.check_splitting(dict(split, preimage=False)) is not None


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second top-level call of a [10, 12] has no children.
    names = ["x.root", "x.a", "x.c", "x.b"]
    tree = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0),
            (1, 10.0, 12.0, -1)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 2.0]
    spans_before = spans.TRACED
    try:
        spans.TRACED = [("x", "root"), ("x", "a"), ("x", "c"), ("x", "b")]
        out = spans.summarize(names, tree, {}, wall_s=16.0)
    finally:
        spans.TRACED = spans_before
    assert out["x.a.calls"] == 2 and out["x.a.self_s"] == 4.0
    assert out["x.root.self_s"] == 3.0 and out["x.b.self_s"] == 4.0
    assert out["trace.coverage_frac"] == 12.0 / 16.0


def test_recorder_links_nested_calls_to_their_parent():
    rec = spans.Recorder()
    inner = rec.wrap("m.inner", lambda x: x + 1)
    outer = rec.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent), (i_name, i_start, i_end, i_parent) = rec.spans
    assert rec.names[o_name] == "m.outer" and o_parent == -1
    assert rec.names[i_name] == "m.inner" and i_parent == 0
    assert o_start <= i_start <= i_end <= o_end


def test_install_wraps_every_binding_in_a_separate_process():
    # Installing mutates the imported package, so it runs in its own process.
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, workloads
from teichmuller import finrings, gmod_cohomology, modlinalg, normal_algebras, groups
original = modlinalg.diagonalize_mod
rec = spans.Recorder()
spans.install(rec, extra_modules=[workloads])
for mod in (modlinalg, gmod_cohomology, finrings, normal_algebras):
    assert mod.diagonalize_mod.__wrapped__ is original, mod
assert workloads.cohomology is gmod_cohomology.cohomology
assert hasattr(gmod_cohomology.CohomologyGroup.class_of, "__wrapped__")
groups.cyclic(3)
assert "groups.FiniteGroup.from_table" in {rec.names[s[0]] for s in rec.spans}
"""
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_metric_names_are_well_formed_and_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = spans.per_layer_metrics()
    names = list(run.END_TO_END) + list(per_layer)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == per_layer
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_worker_environment_does_not_depend_on_the_callers(monkeypatch):
    monkeypatch.setenv("SOME_CALLER_VARIABLE", "x" * 100)
    env = run.worker_env()
    assert "SOME_CALLER_VARIABLE" not in env
    assert env["PYTHONHASHSEED"] == "0" and env["PYTHONDONTWRITEBYTECODE"] == "1"


def test_best_pass_takes_each_operations_fastest_time():
    passes = [{"op_s": [1.0, 5.0, 2.0]}, {"op_s": [3.0, 4.0, 2.5]}, {"op_s": [2.0, 6.0, 0.5]}]
    assert run.best_pass_s(passes) == 1.0 + 4.0 + 0.5


def test_rounds_runs_the_minimum_even_without_time_left():
    assert list(run.rounds(started=0.0, seconds=0.0, at_least=3)) == [0, 1, 2]


def test_wall_ref_divides_each_operation_by_the_reference_around_it():
    # pass 2 ran its second operation in a slow stretch; its ratio stays 300
    passes = [{"op_s": [1.0, 2.0], "ref_s": [0.01, 0.01, 0.01], "op_ref": [0, 1]},
              {"op_s": [1.0, 4.0], "ref_s": [0.01, 0.01, 0.03], "op_ref": [0, 1]},
              {"op_s": [1.0, 3.0], "ref_s": [0.01, 0.01, 0.01], "op_ref": [0, 0]}]
    assert abs(run.wall_ref(passes) - 300.0) < 1e-9


def test_operations_are_timed_apart_from_the_reference_work():
    op = workloads.Operation("fine", lambda: True, workloads.expect_true)
    for kind, make in REFERENCES.items():
        out = run_operations([op], kind)
        assert len(out["op_s"]) == 1 and out["wall_s"] == out["op_s"][0]
        assert out["op_ref"] == [0] and len(out["ref_s"]) == 2
        assert all(r > 0 for r in out["ref_s"])
        assert make()() == make()()
    assert {w.reference for w in workloads.WORKLOADS.values()} <= set(REFERENCES)
