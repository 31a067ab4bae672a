"""Execution subsystem: task graphs over one in-process executor.

Two halves: :mod:`repro.exec.pool` provides the ``Executor`` with its
ordered fan-out contract; :mod:`repro.exec.graph` schedules named task
DAGs in dependency order. Everything above (link discovery fan-out, the
``add_source`` graph, bulk ``integrate_many``) is written against these
two.
"""

from repro.exec.graph import Task, TaskGraph
from repro.exec.pool import ExecError, Executor

__all__ = [
    "ExecError",
    "Executor",
    "Task",
    "TaskGraph",
]
