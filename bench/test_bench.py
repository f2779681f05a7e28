"""Tests of the benchmark itself, on the smallest inputs of each family."""

from __future__ import annotations

import json

import pytest

import inputs
import run
import tracer

COUNTS = [
    name
    for name, unit, _ in tracer.PER_LAYER
    if unit in ("count", "B") or (name.endswith("_ratio") and name != "trace.overhead_ratio")
]


# Small members of each family keep these tests fast; they run the same code.
SMALL = {
    "reduce-gf2": inputs.Family(field=2, length=12, draws=2, span_lo=2, span_hi=8),
    "analyze-gf3": inputs.Family(field=3, length=12, draws=1, span_lo=2, span_hi=6),
}
SEED = 3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    saved = run.OUT_DIR, inputs.FAMILIES, run.SETUP_RUNS
    run.OUT_DIR, inputs.FAMILIES = tmp_path_factory.mktemp("bench_out"), SMALL
    run.SETUP_RUNS = 3
    try:
        return {
            "reduce-plain": run.run("reduce-gf2", SEED, 0, trace=False),
            "reduce-traced": run.run("reduce-gf2", SEED, 0, trace=True),
            "reduce-traced-again": run.run("reduce-gf2", SEED, 0, trace=True),
            "analyze-plain": run.run("analyze-gf3", SEED, 0, trace=False),
            "analyze-traced": run.run("analyze-gf3", SEED, 0, trace=True),
        }
    finally:
        run.OUT_DIR, inputs.FAMILIES, run.SETUP_RUNS = saved


def test_runs_pass_their_checks(runs):
    for name, res in runs.items():
        assert res["correct"], (name, res["failures"])
        assert res["attempted"] >= 2


def test_traced_and_untraced_outputs_have_identical_digests(runs):
    assert runs["reduce-plain"]["digests"] == runs["reduce-traced"]["digests"]
    assert runs["analyze-plain"]["digests"] == runs["analyze-traced"]["digests"]
    assert len(runs["reduce-plain"]["digests"]) == 2


def test_count_metrics_repeat_exactly_across_traced_runs(runs):
    first = runs["reduce-traced"]["metrics"]
    second = runs["reduce-traced-again"]["metrics"]
    assert set(first) == {name for name, _, _ in tracer.PER_LAYER}
    assert first["reduction.steps"]["value"] > 0
    assert first["galois.elim.cells"]["value"] > 0
    for name in COUNTS:
        assert first[name] == second[name], name


def test_layer_shares_cover_at_most_the_op(runs):
    for name in ("reduce-traced", "analyze-traced"):
        metrics = runs[name]["metrics"]
        shares = [metrics[f"{layer}.share"]["value"] for layer in tracer.LAYERS]
        assert all(s >= 0 for s in shares)
        assert 0.9 < sum(shares) <= 1.0


def test_self_times_do_not_double_count_nested_spans(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: float(next(ticks)))
    tr = tracer.Tracer()

    def leaf():
        return None

    leaf_t = tr._wrap("galois.leaf", leaf, None)

    def middle():
        leaf_t()
        leaf_t()

    middle_t = tr._wrap("trellis.middle", middle, None)
    # Clock reads: root open 0; middle open 1; leaf 2-3; leaf 4-5; middle
    # close 6; root close 7.
    with tr.op(0):
        middle_t()
    assert tr.incl_s == {"op": 7.0, "trellis.middle": 5.0, "galois.leaf": 2.0}
    assert tr.self_s == {"op": 2.0, "trellis.middle": 3.0, "galois.leaf": 2.0}
    assert sum(tr.self_s.values()) == tr.incl_s["op"]
    metrics = tr.metrics(traced_s=7.0, untraced_s=7.0)
    assert metrics["galois.self_s"] == 2.0
    assert metrics["trellis.self_s"] == 3.0
    assert metrics["galois.share"] + metrics["trellis.share"] == pytest.approx(5.0 / 7.0)


def test_tail_percentile_leaves_ten_samples_above():
    times = [float(i) for i in range(30)]
    q, value = run.tail_percentile(times)
    assert q == 66
    assert sum(t > value for t in times) == 10
    assert run.tail_percentile([1.0, 2.0]) == (50, 1.0)
    assert run.tail_percentile(times[:12]) == (50, 5.0)


def test_op_times_are_divided_by_the_reference_around_them():
    # The machine halves its speed midway; every op costs two reference runs.
    times = [2.0] * 15 + [4.0] * 15
    refs = [1.0] * 15 + [2.0] * 15
    metrics, q = run.end_to_end_metrics(run.Tally(30, 0), times, refs, 30, 0.1)
    assert metrics["op_p50_ref"] == metrics["op_tail_ref"] == 2.0
    assert metrics["ops_per_ref"] == 0.5
    assert q == 66
    assert run.reference_s() > 0


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(inputs, "FAMILIES", SMALL)
    return tmp_path


def test_corrupted_reduce_output_is_reported_as_failed(workspace):
    cli = run.load_cli()
    workload = run.ReduceGF2()
    op = workload.ops(workspace, SEED)[0]
    verifier = run.Verifier(cli, workload, workspace, None)
    _, result = run.run_op(cli, op)
    assert result.code == 0
    out = op.outputs[0]
    good = out.read_text()
    out.write_text(good.replace("constraint 1\n", "constraint 1\n1|1|1\n", 1))
    assert not verifier.verify(op, result)
    assert "replaying" in verifier.failures[-1]
    out.write_text(good)
    assert verifier.verify(op, result)
    out.write_text(good + "\n")
    assert not verifier.verify(op, result)
    assert "first output" in verifier.failures[-1]


def test_corrupted_analyze_and_corpus_outputs_are_reported_as_failed(workspace):
    cli = run.load_cli()
    workload = run.AnalyzeGF3()
    op = workload.ops(workspace, SEED)[0]
    _, result = run.run_op(cli, op)
    data = json.loads(result.stdout)
    obs = data["t_profile"]["observable"]
    obs["1"] = not obs["1"]
    bad = run.Result(result.code, json.dumps(data))
    assert workload.check(cli, op, result) is None
    assert "dual" in workload.check(cli, op, bad)

    corpus = run.CorpusVerify()
    entries = [{"id": i, "passed": 1, "failed": []} for i in run.CORPUS_IDS]
    entries[0]["failed"] = [{"check": "flag", "detail": "trim=False"}]
    reason = corpus.check(cli, op, run.Result(0, json.dumps(entries)))
    assert "fig1a" in reason
    assert corpus.check(cli, op, run.Result(1, "[]")) == "exit code 1"


def test_pinned_digest_mismatch_is_reported_as_failed(workspace):
    cli = run.load_cli()
    workload = run.ReduceGF2()
    op = workload.ops(workspace, SEED)[0]
    verifier = run.Verifier(cli, workload, workspace, {op.name: "0" * 64})
    _, result = run.run_op(cli, op)
    assert not verifier.verify(op, result)
    assert "pinned" in verifier.failures[-1]


def test_pinned_digests_cover_every_default_input():
    pins = json.loads(run.PINNED.read_text())
    assert set(pins) == set(run.WORKLOADS)
    assert len(pins["corpus-verify"]) == 1
    for name, fam in inputs.FAMILIES.items():
        assert len(pins[name]) == fam.draws


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = [p.read_text() for p in inputs.write_family("reduce-gf2", 5, tmp_path / "a")]
    b = [p.read_text() for p in inputs.write_family("reduce-gf2", 5, tmp_path / "b")]
    c = [p.read_text() for p in inputs.write_family("reduce-gf2", 6, tmp_path / "c")]
    assert a == b
    assert a != c
    assert len(a) == inputs.FAMILIES["reduce-gf2"].draws
