"""Print the exit code and the sha256 of the report of every benchmark job.

Builds the inputs of each workload in ``bench/workloads.py`` for seeds 1-5,
runs every job through ``reachctl.cli.run`` with ``reachctl`` imported from
this checkout's ``src``, and prints one tab-separated line per job: workload,
seed, job name, exit code, and the sha256 of the report (``-`` when the job
wrote none).  Reports hold no file paths, so two checkouts wrote
byte-identical reports exactly when their outputs diff to nothing::

    python tools/report_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from reachctl.cli import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)


def main() -> int:
    for name, build in WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                out = work / "report.json"
                for job in build(work, seed):
                    code = run(job.argv + ["--out", str(out)])
                    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
                    out.unlink(missing_ok=True)
                    print(f"{name}\t{seed}\t{job.name}\t{code}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
