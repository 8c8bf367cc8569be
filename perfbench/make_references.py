"""Regenerate ``references.json``: round 0 of every default seed.

Usage, from the root of a checkout::

    python3 perfbench/make_references.py [workload ...]

Only rerun this when a change is *meant* to alter a workload's outputs,
and say so in the change: the references are what every later run's
``ok_share`` is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEEDS,
    REFERENCES,
    SIZES,
    WORKLOADS,
)


def main(names: list[str]) -> int:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    workdir = HERE.parent / ".perfbench" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or list(WORKLOADS):
            seeds = {}
            for seed in DEFAULT_SEEDS:
                workload = WORKLOADS[name](seed, SIZES[name], workdir)
                workload.reference = None
                workload.setup()
                tally = workload.run_round(0, float("inf"), [])
                tally.add(workload.finish())
                if tally.failed or tally.problems or tally.corrupt:
                    print(f"{name} seed {seed}: {tally.problems}",
                          file=sys.stderr)
                    return 1
                seeds[str(seed)] = workload.round0
                print(f"{name} seed {seed}: {tally.attempted} ops",
                      flush=True)
            refs[name] = {"sizes": SIZES[name], "seeds": seeds}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
