"""Tests of the benchmark's tracing wrappers, checks and contract."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import sumchoice  # noqa: E402
from sumchoice import acceptance, choosability, cli, exact, graphs  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_modules():
    clock = FakeClock()
    mod = types.ModuleType("pbfake")
    other = types.ModuleType("pbfake.user")

    def inner(x):
        clock.now += 2.0
        return x + 1

    def outer(x):
        clock.now += 1.0
        y = mod.inner(x) + mod.inner(x)
        clock.now += 0.5
        return y

    def stream(n):
        for i in range(n):
            clock.now += 0.25
            yield i

    mod.inner, mod.outer, mod.stream = inner, outer, stream
    other.inner = inner  # a second binding of the same function
    sys.modules["pbfake"], sys.modules["pbfake.user"] = mod, other
    yield clock, mod, other
    del sys.modules["pbfake"], sys.modules["pbfake.user"]


def test_nested_self_time(fake_modules):
    clock, mod, _ = fake_modules
    targets = [("pbfake", "outer"), ("pbfake", "inner"), ("pbfake", "stream")]
    with Tracer(targets, scope=("pbfake",), clock=clock) as t:
        assert mod.outer(1) == 4
        assert list(mod.stream(3)) == [0, 1, 2]
    assert t.calls("pbfake.outer") == 1 and t.calls("pbfake.inner") == 2
    assert t.total("pbfake.outer") == pytest.approx(5.5)
    assert t.self_time("pbfake.outer") == pytest.approx(1.5)
    assert t.total("pbfake.inner") == pytest.approx(4.0)
    assert t.self_time("pbfake.inner") == pytest.approx(4.0)
    assert t.calls("pbfake.stream") == 1 and t.stats["pbfake.stream"].items == 3
    assert t.total("pbfake.stream") == pytest.approx(0.75)


def test_every_binding_patched_and_restored(fake_modules):
    _, mod, other = fake_modules
    original = mod.inner
    with Tracer([("pbfake", "inner")], scope=("pbfake",)):
        assert mod.inner is not original and other.inner is mod.inner
    assert mod.inner is original and other.inner is original

    bindings = [choosability, exact, acceptance, cli, sumchoice]
    before = [m.is_sufficient for m in bindings]
    assert len(set(map(id, before))) == 1
    with Tracer(layers.TARGETS):
        during = [m.is_sufficient for m in bindings]
        assert all(f is not before[0] for f in during)
        assert len(set(map(id, during))) == 1
    assert [m.is_sufficient for m in bindings] == before
    for mod_name, fn_name in layers.TARGETS:
        assert getattr(sys.modules[mod_name], fn_name).__module__ == mod_name


def test_restored_when_a_traced_call_raises():
    original = choosability.is_sufficient
    with pytest.raises(ValueError):
        with Tracer(layers.TARGETS):
            choosability.is_sufficient(graphs.cycle(4), (2, 2))  # wrong length
    assert choosability.is_sufficient is original


def small_workload(seed: int = 0, want_k23: int = 10) -> workloads.Workload:
    k23 = workloads.relabel(graphs.complete_bipartite(2, 3), workloads.permutation(seed, "K", 5, ((0, 1), (2, 3, 4))))
    c5 = graphs.cycle(5)
    cases = [
        workloads.Case("K_{2,3}", lambda: workloads._exact_answer(k23), workloads._check_exact(want_k23)),
        workloads.Case("C_5 exact", lambda: workloads._exact_answer(c5), workloads._check_exact(10)),
        workloads.Case("C_4 f=2", lambda: workloads._verdict(graphs.cycle(4), (2,) * 4),
                       workloads._check_status(lambda: "sufficient")),
    ]
    return workloads._workload("small", seed, cases)


def traced_pass(workload):
    rec = layers.Recorder()
    with Tracer(layers.TARGETS, hooks=rec.hooks()) as tracer:
        samples = bench_run.timed_pass(workload)
    return samples, layers.metrics(tracer, rec, {}), rec


def test_traced_pass_matches_untraced_and_counts_repeat():
    workload = small_workload(seed=2)
    plain = bench_run.timed_pass(workload)
    samples, values, rec = traced_pass(workload)
    assert [(s.case, s.answer) for s in samples] == [(s.case, s.answer) for s in plain]
    assert bench_run.check_passes(workload, [samples]) == []
    assert values["exact.oracle_calls"] > 0 and values["choosability.classes"] > 0
    assert rec.witnesses and layers.recheck(rec.witnesses) == []
    _, again, _ = traced_pass(workload)
    assert layers.counts(again) == layers.counts(values)


def test_wrong_reference_counts_as_failure():
    workload = small_workload(want_k23=11)
    passes = [bench_run.timed_pass(workload)]
    failures = bench_run.check_passes(workload, passes)
    assert len(failures) == 1 and failures[0].startswith("K_{2,3}")
    assert len(failures) / bench_run.cases_run(passes) > 0


def test_recheck_flags_a_colorable_witness():
    g = graphs.cycle(4)
    assert layers.recheck([(g, (1,) * 4, tuple(frozenset({v}) for v in range(4)))])
    assert layers.recheck([(g, (2,) * 4, (frozenset({0}),) * 4)])


def test_relabeling_keeps_graphs_isomorphic():
    g = graphs.complete_bipartite(2, 4)
    perm = workloads.permutation(5, "x", g.n, g.parts)
    assert sorted(perm[:2]) == [0, 1] and sorted(perm) == list(range(6))
    assert workloads.relabel(g, perm).edges == g.edges
    assert workloads.permutation(0, "x", 6) == list(range(6))
    assert workloads.sweep_pairs(3) == workloads.sweep_pairs(3) != workloads.sweep_pairs(4)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.END_TO_END)


def test_exits_2_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kaq_exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_repeat_check_flags_changed_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "STATE", tmp_path)
    assert bench_run.repeat_check("w", 1, {"choosability.classes": 7}) is None  # first record
    assert bench_run.repeat_check("w", 1, {"choosability.classes": 7}) is None
    assert "differ" in bench_run.repeat_check("w", 1, {"choosability.classes": 8})
