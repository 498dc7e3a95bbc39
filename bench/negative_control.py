"""Oracle negative control: ``python3 bench/negative_control.py``.

Runs ``degraded_rebuild`` at its tiny size twice under the hybrid
scheme: once as it is, and once with
:class:`repro.analysis.seeded_bugs.InPlaceOverflowHybrid` swapped in,
which writes partial stripes in place without updating parity.  The
workload reaches that bug without any fault injected, and the
benchmark's own verifier must convict it -- the degraded read
reconstructs the victim's blocks from stale parity and differs from the
numpy reference, and ``scrub`` reports the stale groups -- so a change
that is fast but wrong cannot pass.  Exit status 0 means the clean run
had no failure and the seeded run had at least one.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.analysis import seeded_bugs  # noqa: E402

from bench.harness import Recorder  # noqa: E402
from bench.workloads import SIZES, degraded_rebuild  # noqa: E402


def run(seeded: bool, seed: int = 1) -> Recorder:
    rec = Recorder("degraded_rebuild")

    def inject(system) -> None:
        seeded_bugs.inject(
            system, seeded_bugs.InPlaceOverflowHybrid(system.config))

    degraded_rebuild(rec, seed, SIZES["tiny"]["degraded_rebuild"],
                     schemes=("hybrid",), inject=inject if seeded else None)
    return rec


def main() -> int:
    clean, buggy = run(seeded=False), run(seeded=True)
    for name, rec in (("clean hybrid", clean),
                      ("InPlaceOverflowHybrid", buggy)):
        print(f"{name}: op_fail_share "
              f"{rec.failed / rec.attempted:.4f} "
              f"({rec.failed} of {rec.attempted})")
        for message in rec.failures[:3]:
            print(f"  {message}")
    convicted = clean.failed == 0 and buggy.failed > 0
    print("negative control:", "convicted" if convicted else "NOT convicted")
    return 0 if convicted else 1


if __name__ == "__main__":
    sys.exit(main())
