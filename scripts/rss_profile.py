#!/usr/bin/env python
"""Peak resident set of a paper-scale set-up, measured at three points.

Prints one line per stage with the process's ``ru_maxrss`` in MB:

* ``import``      — after ``import repro.cli``;
* ``build``       — after a paper-scale ``build_trial_system``;
* ``candidates``  — after building ``candidate_arrays`` for every task
  type, which reuses the execution-time table's cell matrices.

A module that creeps back onto the start-up path, or a second copy of
the execution pmfs, shows as a step in these numbers.  Linux only
(``ru_maxrss`` is KiB there).

Usage:
    PYTHONPATH=src python scripts/rss_profile.py
"""

from __future__ import annotations

import resource


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    stages = []
    import repro.cli  # noqa: F401

    stages.append(("import", _peak_mb()))
    from repro.config import SimulationConfig
    from repro.sim.system import build_trial_system

    table = build_trial_system(SimulationConfig()).table
    stages.append(("build", _peak_mb()))
    for type_id in range(table.etc.num_task_types):
        table.candidate_arrays(type_id)
    stages.append(("candidates", _peak_mb()))
    for name, mb in stages:
        print(f"{name:<12}{mb:8.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
