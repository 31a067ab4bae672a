"""Execution subsystem: task graphs over one in-process executor.

Two halves: :mod:`repro.exec.pool` provides the ``Executor`` with its
ordered fan-out contract; :mod:`repro.exec.graph` schedules named task
DAGs in dependency order. Everything above is written against these
two: each integrated source, whether it came through ``add_source``,
``add_database`` or ``integrate_many``, runs one task graph whose link
and duplicate steps fan out on the executor.
"""

from repro.exec.graph import Task, TaskGraph
from repro.exec.pool import ExecError, Executor

__all__ = [
    "ExecError",
    "Executor",
    "Task",
    "TaskGraph",
]
