"""The serve loop: many client jobs interleaved over one server.

``ServeLoop.run(jobs)`` plays the role of the server's dispatcher: every
job is a callable receiving its own freshly opened in-process
:class:`~repro.serve.connection.Connection`, runs on its own thread
(capped by ``max_threads``), and its connection is closed — releasing
cursors, locks and the admission slot — when the job returns or
raises.  Results come back **in job order**, so the outcome
is deterministic regardless of thread interleaving: sessions share the
engine at message granularity (the manager's engine lock), but each
session's cursor stream is private and ordered.

This is the synchronous thread-per-session driver; the asyncio daemon
(:mod:`repro.serve.daemon`) serves many clients from one thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ServeError
from repro.serve.connection import Connection, connect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.session import SessionManager


class ServeLoop:
    """Run client jobs concurrently, one connection per job."""

    def __init__(self, manager: "SessionManager",
                 max_threads: int | None = None) -> None:
        if max_threads is not None and max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        self.manager = manager
        self.max_threads = max_threads

    def run(self, jobs: Sequence[Callable[[Connection], Any]],
            names: Sequence[str] | None = None) -> list[Any]:
        """Execute every job against its own connection; results in job
        order.

        Jobs are distributed round-robin over at most ``max_threads``
        threads (default: one thread per job).  Each thread connects
        *inside* the job loop, so admission control applies: with
        ``admission='queue'`` a loop wider than ``max_sessions`` simply
        waits for slots; with ``'reject'`` it surfaces
        :class:`~repro.errors.SessionLimitError` like any other job
        failure.  Failures are collected from *every* thread (their
        connections are always closed): one failing job re-raises its
        exception directly, several raise a
        :class:`~repro.errors.ServeError` aggregating all of them in
        deterministic job order — concurrent failures are no longer
        silently dropped behind the first.
        """
        if names is not None and len(names) != len(jobs):
            raise ValueError("names must match jobs one-to-one")
        if not jobs:
            return []
        results: list[Any] = [None] * len(jobs)
        failures: list[tuple[int, BaseException]] = []
        thread_count = len(jobs) if self.max_threads is None \
            else min(self.max_threads, len(jobs))

        def drive(assigned: list[int]) -> None:
            for index in assigned:
                conn = None
                try:
                    label = names[index] if names is not None else None
                    conn = connect(self.manager, name=label)
                    results[index] = jobs[index](conn)
                except BaseException as exc:  # noqa: BLE001 - reraised below
                    failures.append((index, exc))
                finally:
                    if conn is not None:
                        conn.close()

        threads = [
            threading.Thread(target=drive,
                             args=(list(range(t, len(jobs), thread_count)),),
                             name=f"serve-loop-{t}", daemon=True)
            for t in range(thread_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            failures.sort(key=lambda pair: pair[0])
            if len(failures) == 1:
                raise failures[0][1]
            raise ServeError(failures)
        return results
