"""Closed-loop benchmark of the ribbonkit CLI on seeded `.rcx` documents.

    python3 perfbench/run.py --workload nervecheck_rects --seed 3 --seconds 25 --trace 0

One client, one process, no threads: the next document is sent when the
previous one returns, through ``ribbonkit.cli.main(argv)`` in-process, with
a ``gc.collect()`` between documents.  Set-up (import from ``src/``,
document generation and writing, one warm-up document) runs several times
and reports its median.  Every document's exit code and stdout are checked
against the answer its construction fixes, and for the default seed also
against digests of the seed code's output (``digests.json``).  A
workload's probe documents, which hold a known defect of the current code,
run after the timed loop and are reported in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs whole
passes over the corpus untraced, then traced, and prints per-layer metrics
per pass; spans go to ``perfbench/_runs/``.  The last stdout line is the
result object; the line before it holds the details behind the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from spans import SPAN_NAMES, Tracer
from workloads import WORKLOADS, Doc, is_known_defect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_ROUNDS = 5
TAIL_BEYOND = 10
MODULES = ("cli", "document", "geometry", "complexes", "nerves", "homology", "division")
STAGES = tuple(m for m in MODULES if m != "geometry")


def import_cli():
    """Import ``ribbonkit.cli`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "ribbonkit" or m.startswith("ribbonkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("ribbonkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ribbonkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_document(cli, doc: Doc, path: Path):
    """(exit code, stdout, stderr, seconds) of one CLI call."""
    argv = [doc.argv[0], str(path), *doc.argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed document, not a failed run
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


class Outcomes:
    """Per-document verdicts of the timed documents."""

    def __init__(self, workload, digests: List[str]):
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.unexpected: List[str] = []

    def add(self, doc: Doc, code: int, out: str, err: str) -> None:
        self.attempted += 1
        problems = self.workload.check(doc, code, out)
        as_recorded = not self.digests or digest(code, out) == self.digests[doc.index]
        if not as_recorded:
            problems.append("stdout or exit code differs from the recorded seed-code digest")
        if not problems:
            return
        self.failed += 1
        if len(self.unexpected) < 5:
            self.unexpected.append(f"doc {doc.index}: {problems} {err.strip()[:300]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def probe_known_defect(cli, workload, seed: int, work: Path) -> dict:
    """Run the workload's probe documents once, untimed.

    Each must give the answer its construction fixes or, exactly, the
    recorded known defect; anything else is unexpected.
    """
    result = {"documents": 0, "answer": 0, "known_defect": 0, "unexpected": []}
    for doc in workload.generate_probes(seed):
        path = work / f"probe-{doc.index:03d}.rcx"
        path.write_text(doc.text, encoding="utf-8")
        code, out, err, _ = run_document(cli, doc, path)
        result["documents"] += 1
        problems = workload.check(doc, code, out)
        if not problems:
            result["answer"] += 1
        elif is_known_defect(doc, code, out):
            result["known_defect"] += 1
        else:
            result["unexpected"].append(f"probe {doc.index}: {problems} {err.strip()[:300]}")
    return result


def setup(workload, seed: int, work: Path):
    """Import, generate and write the corpus, run one warm-up document."""
    start = time.perf_counter()
    cli = import_cli()
    docs = workload.generate(seed)
    # A fresh directory each round: on ext4, truncating and rewriting a file
    # that was just written forces a flush to disk and costs ~50 ms a file.
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = []
    for doc in docs:
        path = work / f"{doc.index:03d}.rcx"
        path.write_text(doc.text, encoding="utf-8")
        paths.append(path)
    run_document(cli, docs[0], paths[0])
    return time.perf_counter() - start, cli, docs, paths


def closed_loop(cli, docs, paths, outcomes: Outcomes, until: float, whole_passes: bool,
                tracer: Tracer = None) -> List[Tuple[int, float]]:
    """Send documents one after another until ``until``.

    Returns ``(document index, seconds)`` per document sent.
    """
    samples: List[Tuple[int, float]] = []
    i = 0
    while True:
        doc = docs[i % len(docs)]
        gc.collect()
        if tracer is not None:
            tracer.start_document(f"{i // len(docs)}/{doc.index}")
        code, out, err, elapsed = run_document(cli, doc, paths[i % len(docs)])
        samples.append((doc.index, elapsed))
        outcomes.add(doc, code, out, err)
        i += 1
        if time.perf_counter() >= until and (not whole_passes or i % len(docs) == 0):
            return samples


def doc_medians(samples: List[Tuple[int, float]]) -> List[float]:
    """Each document's median time in the run.

    Every document is sent several times; its median ignores the odd
    repeat slowed by other load on the machine, and counts each document
    once however the run's last, partial pass ended.
    """
    per_doc: Dict[int, List[float]] = {}
    for index, elapsed in samples:
        per_doc.setdefault(index, []).append(elapsed)
    return [statistics.median(v) for v in per_doc.values()]


def items_per_s(samples: List[Tuple[int, float]]) -> float:
    """Documents per second over one pass, each at its median time."""
    medians = doc_medians(samples)
    return len(medians) / sum(medians)


def tail(latencies: List[float]):
    """Value, percentile and samples beyond of the highest percentile with
    ten samples beyond it; the maximum when a run has too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> Dict[str, tuple]:
    """Per-layer metrics per pass over the corpus, as ``{name: (value, unit)}``.

    Metrics of a span whose binding no longer exists are left out.
    """
    zero = [0, 0, 0, 0, 0]
    totals: Dict[str, List[int]] = {}
    for per_doc in tracer.tallies.values():
        for name, t in per_doc.items():
            totals[name] = [a + b for a, b in zip(totals.get(name, zero), t)]
    sizes: Dict[str, int] = {}
    family_ns = {"dense": 0, "chain": 0}
    for span in tracer.spans:
        sizes[span[1]] = sizes.get(span[1], 0) + (span[7] or 0)
        if span[1] == "nerves.nerve":
            family_ns[span[8]] += span[5] - span[4]
    module_ns = dict.fromkeys(MODULES, 0)
    for name, t in totals.items():
        module_ns[name.split(".")[0]] += t[2]
    stage_ns = dict.fromkeys(STAGES, 0)
    for per_doc in tracer.stages.values():
        for stage, ns in per_doc.items():
            stage_ns[stage] += ns

    def field(span, i):
        return totals.get(span, zero)[i]

    def calls(span):
        return (span, field(span, 0) // passes, "count")

    def busy(span):
        return (span, field(span, 1) / passes / 1e9, "s")

    def own(span):
        return (span, field(span, 2) / passes / 1e9, "s")

    def counted(span):
        return (span, field(span, 4) // passes, "count")

    def size(span):
        return (span, sizes.get(span, 0) // passes, "count")

    witness = "nerves.common_witness"
    rows = {
        "geometry.classify.calls": calls("geometry.classify"),
        "geometry.classify.busy_s": busy("geometry.classify"),
        "geometry.segment_intersection.calls": calls("geometry.segment_intersection"),
        "geometry.segment_intersection.busy_s": busy("geometry.segment_intersection"),
        "complexes.validate_cw.calls": calls("complexes.validate_cw"),
        "complexes.validate_cw.busy_s": busy("complexes.validate_cw"),
        "complexes.cells": size("complexes.validate_cw"),
        "complexes.violations": counted("complexes.validate_cw"),
        "nerves.nerve.calls": calls("nerves.nerve"),
        "nerves.nerve.dense.busy_s": ("nerves.nerve", family_ns["dense"] / passes / 1e9, "s"),
        "nerves.nerve.chain.busy_s": ("nerves.nerve", family_ns["chain"] / passes / 1e9, "s"),
        "nerves.common_witness.calls": calls(witness),
        "nerves.common_witness.busy_s": busy(witness),
        "nerves.witness_hit_ratio": (
            witness, field(witness, 4) / field(witness, 0) if field(witness, 0) else 0.0, "ratio"),
        "nerves.simplices": counted("nerves.nerve"),
        "homology.rasterize.busy_s": busy("homology.rasterize"),
        "homology.pixels": size("homology.rasterize"),
        "homology.cubical_betti.busy_s": busy("homology.cubical_betti"),
        "homology.z2_betti.busy_s": busy("homology.z2_betti"),
        "homology.clearance.busy_s": busy("homology.clearance"),
        "division.verify_partition.self_s": own("division.verify_partition"),
        "division.classify_region.calls": calls("division.classify_region"),
        "division.classify_region.self_s": own("division.classify_region"),
        "division.samples": size("division.verify_partition"),
        "document.parse_document.busy_s": busy("document.parse_document"),
        "document.bytes": size("document.parse_document"),
        "cli.main.self_s": own("cli.main"),
        "trace.overhead_ratio": ("cli.main", overhead_ratio, "ratio"),
    }
    for module in MODULES:
        rows[f"{module}.self_s"] = (None, module_ns[module] / passes / 1e9, "s")
    for stage in STAGES:
        rows[f"{stage}.stage_s"] = (None, stage_ns[stage] / passes / 1e9, "s")
    for span in SPAN_NAMES:
        rows[f"{span}.errors"] = (span, field(span, 3) // passes, "count")
    return {k: (v, unit) for k, (span, v, unit) in rows.items() if span not in tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ribbonkit" / "cli.py").is_file():
        print(f"no ribbonkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = RUNS / f"{workload.name}-seed{args.seed}"
    digests = []
    if args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text()).get(workload.name, [])

    outcomes = Outcomes(workload, digests)
    detail = {"workload": workload.name, "seed": args.seed, "digest_checked": bool(digests)}
    try:
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            elapsed, cli, docs, paths = setup(workload, args.seed, work)
            setup_times.append(elapsed)
        detail["corpus"] = len(docs)
        if args.trace == 0:
            start = time.perf_counter()
            samples = closed_loop(cli, docs, paths, outcomes, start + args.seconds, whole_passes=False)
            lat = [elapsed for _, elapsed in samples]
            tail_s, tail_pct, beyond = tail(lat)
            metrics = {
                "items_per_s": (items_per_s(samples), "1/s"),
                "item_p50_ms": (statistics.median(doc_medians(samples)) * 1e3, "ms"),
                "item_tail_ms": (tail_s * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
            detail.update(tail_percentile=round(tail_pct, 2), tail_beyond=beyond,
                          samples=len(lat), setup_rounds=setup_times)
        else:
            # Whole passes for a quarter of --seconds each (one pass at the
            # usual settings), so a traced run takes no longer than a plain one.
            quarter = args.seconds / 4
            plain = closed_loop(cli, docs, paths, outcomes, time.perf_counter() + quarter, whole_passes=True)
            tracer = Tracer()
            with tracer:
                traced = closed_loop(cli, docs, paths, outcomes, time.perf_counter() + quarter,
                                     whole_passes=True, tracer=tracer)
            passes = len(traced) // len(docs)
            ratio = items_per_s(plain) / items_per_s(traced)
            metrics = layer_metrics(tracer, passes, ratio)
            RUNS.mkdir(exist_ok=True)
            spans_path = RUNS / f"{workload.name}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps({
                "fields": ["id", "span", "doc", "parent", "start_ns", "end_ns", "self_ns", "size", "tag"],
                "spans": tracer.spans,
                "tallies": {"fields": ["calls", "busy_ns", "self_ns", "errors", "count"],
                            "by_doc": tracer.tallies},
                "stage_ns": tracer.stages,
            }))
            stage_total = sum(metrics[f"{m}.stage_s"][0] for m in STAGES)
            detail.update(
                passes=passes, absent=tracer.absent, spans=str(spans_path.relative_to(ROOT)),
                stage_shares={m: round(metrics[f"{m}.stage_s"][0] / stage_total, 4) for m in STAGES},
                module_shares={m: round(metrics[f"{m}.self_s"][0] / stage_total, 4) for m in MODULES},
            )
        probe = probe_known_defect(cli, workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(attempted=outcomes.attempted, failed=outcomes.failed,
                  failed_ratio=outcomes.failed / outcomes.attempted,
                  unexpected=outcomes.unexpected, probe=probe)
    for line in outcomes.unexpected + probe["unexpected"]:
        print(line, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcomes.correct and not probe["unexpected"],
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
