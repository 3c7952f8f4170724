"""Fault-schedule serialization (``repro.faults/1``).

A :class:`~repro.faults.FaultSchedule` is the reproducibility anchor of
a degraded run: archiving the schedule alongside results lets a later
session replay the identical outage/recovery sequence against a
different policy.  The document format is the schedule's own
``to_dict``/``from_dict`` round-trip — this module only adds the file
I/O.
"""

from __future__ import annotations

import pathlib

from repro.faults import FaultSchedule
from repro.io.results_io import load_json, save_json

__all__ = ["save_faults", "load_faults"]


def save_faults(schedule: FaultSchedule, path: str | pathlib.Path) -> pathlib.Path:
    """Write a fault schedule as a ``repro.faults/1`` JSON document."""
    return save_json(schedule.to_dict(), path)


def load_faults(path: str | pathlib.Path) -> FaultSchedule:
    """Read a fault schedule written by :func:`save_faults`."""
    return FaultSchedule.from_dict(load_json(path))
