"""Record digests of the CLI output on every workload's default-seed corpus.

    python3 perfbench/record_digests.py

Run this only when a change to the CLI output is intended; ``run.py``
fails every default-seed document whose exit code and stdout no longer
match.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    if not (run.SRC / "ribbonkit" / "cli.py").is_file():
        print(f"no ribbonkit sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name, workload in WORKLOADS.items():
        work = run.RUNS / f"{name}-digests"
        try:
            _, cli, docs, paths = run.setup(workload, run.DEFAULT_SEED, work)
            digests[name] = [
                run.digest(*run.run_document(cli, doc, path)[:2]) for doc, path in zip(docs, paths)
            ]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
