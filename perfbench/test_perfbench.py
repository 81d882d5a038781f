"""Tests of the benchmark itself: inputs, verdicts, spans and counts.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import run
from spans import WRAP_POINTS, Tracer
from workloads import WORKLOADS, is_known_defect, union_ranks

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The first documents of each default-seed corpus, written out."""
    cli = run.import_cli()
    work = tmp_path_factory.mktemp("docs")
    out = {}
    for name, workload in WORKLOADS.items():
        docs = workload.generate(run.DEFAULT_SEED)[:2]
        paths = []
        for doc in docs:
            path = work / f"{name}-{doc.index}.rcx"
            path.write_text(doc.text, encoding="utf-8")
            paths.append(path)
        out[name] = (docs, paths)
    return cli, out


def test_same_seed_gives_byte_identical_documents():
    for workload in WORKLOADS.values():
        first = [d.text for d in workload.generate(7)]
        assert first == [d.text for d in workload.generate(7)]
        assert first != [d.text for d in workload.generate(8)]


def test_union_ranks_of_a_ring_of_rectangles():
    f = Fraction
    ring = [(f(0), f(0), f(3), f(1)), (f(2), f(0), f(3), f(3)),
            (f(0), f(2), f(3), f(3)), (f(0), f(0), f(1), f(3))]
    assert union_ranks(ring) == (1, 1)
    assert union_ranks(ring[:2] + [(f(5), f(5), f(6), f(6))]) == (2, 0)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([x / 1000 for x in range(100)]) == (0.089, 90.0, 10)
    assert run.tail([0.3, 0.1, 0.2]) == (0.3, 100.0, 0)


def _corrupt(out: str) -> str:
    """The output with its first digit changed."""
    i = next(i for i, c in enumerate(out) if c.isdigit())
    return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]


def test_corrupted_stdout_or_exit_code_counts_as_failed(corpus):
    cli, docs = corpus
    digests = json.loads(run.DIGESTS.read_text())
    for name, workload in WORKLOADS.items():
        doc, path = docs[name][0][0], docs[name][1][0]
        code, out, err, _ = run.run_document(cli, doc, path)
        for bad_code, bad_out in ((code, out), (code ^ 1, out), (code, _corrupt(out))):
            outcomes = run.Outcomes(workload, digests[name])
            outcomes.add(doc, bad_code, bad_out, err)
            intact = (bad_code, bad_out) == (code, out)
            assert outcomes.failed == (0 if intact else 1), name
            assert outcomes.correct == intact, name


def test_digest_alone_catches_a_changed_output(corpus):
    cli, docs = corpus
    workload = WORKLOADS["validate_grids"]
    doc, path = docs["validate_grids"][0][0], docs["validate_grids"][1][0]
    code, out, err, _ = run.run_document(cli, doc, path)
    outcomes = run.Outcomes(workload, ["0" * 16] * workload.corpus)
    outcomes.add(doc, code, out, err)
    assert outcomes.failed == 1 and not outcomes.correct


def test_near_tangent_false_failure_is_probed_outside_the_timed_corpus(corpus, tmp_path):
    cli, _ = corpus
    workload = WORKLOADS["nervecheck_rects"]
    assert not any(d.near_tangent for d in workload.generate(run.DEFAULT_SEED))
    probes = workload.generate_probes(run.DEFAULT_SEED)
    assert probes and all(d.near_tangent for d in probes)
    probe = run.probe_known_defect(cli, workload, run.DEFAULT_SEED, tmp_path)
    assert probe == {"documents": len(probes), "answer": 0, "known_defect": len(probes), "unexpected": []}
    doc = probes[0]
    code, out, _, _ = run.run_document(cli, doc, tmp_path / f"probe-{doc.index:03d}.rcx")
    assert code == 2 and "passed=false" in out
    assert is_known_defect(doc, code, out) and not is_known_defect(doc, code, _corrupt(out))


def _traced_pass(cli, docs, tracer):
    with tracer:
        for name, (ds, paths) in docs.items():
            for doc, path in zip(ds, paths):
                tracer.start_document(f"{name}/{doc.index}")
                run.run_document(cli, doc, path)


def test_self_times_of_a_document_add_up_to_its_main_span(corpus):
    cli, docs = corpus
    tracer = Tracer()
    _traced_pass(cli, docs, tracer)
    assert len(tracer.tallies) == 2 * len(WORKLOADS)
    for doc, tallies in tracer.tallies.items():
        roots = [s for s in tracer.spans if s[2] == doc and s[3] == -1]
        assert [s[1] for s in roots] == ["cli.main"], doc
        main_ns = roots[0][5] - roots[0][4]
        assert tallies["cli.main"][1] == main_ns
        assert sum(t[2] for t in tallies.values()) == main_ns, doc
        assert sum(tracer.stages[doc].values()) == main_ns, doc


def test_counts_repeat_exactly_across_two_traced_runs(corpus):
    cli, docs = corpus
    counts = []
    for _ in range(2):
        tracer = Tracer()
        _traced_pass(cli, docs, tracer)
        metrics = run.layer_metrics(tracer, passes=1, overhead_ratio=1.0)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["nerves.nerve.calls"] > 0 and counts[0]["complexes.cells"] > 0
    assert counts[0]["division.samples"] > 0 and counts[0]["homology.pixels"] > 0


def test_bindings_are_restored_after_the_traced_run(corpus):
    cli, _ = corpus
    import ribbonkit.geometry as geometry
    import ribbonkit.nerves as nerves

    def bindings():
        return (cli.main, cli.nerve, nerves.common_witness, geometry.segment_intersection,
                geometry.ScaledLoop.__dict__["classify"])

    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert bindings()[0] is not before[0]
            raise RuntimeError("the run stops half way")
    assert bindings() == before


def test_a_removed_function_makes_its_metrics_absent(corpus):
    cli, docs = corpus
    points = tuple(
        replace(p, attr="common_witness_gone") if p.span == "nerves.common_witness" else p
        for p in WRAP_POINTS
    )
    tracer = Tracer(points)
    _traced_pass(cli, {"nerve_ribbons": docs["nerve_ribbons"]}, tracer)
    assert tracer.absent == ["nerves.common_witness"]
    metrics = run.layer_metrics(tracer, passes=1, overhead_ratio=1.0)
    assert not any(k.startswith("nerves.common_witness") or k == "nerves.witness_hit_ratio" for k in metrics)
    assert metrics["nerves.nerve.calls"][0] > 0


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    names = set(run.layer_metrics(tracer, passes=1, overhead_ratio=1.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_a_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divide_ribbons", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
