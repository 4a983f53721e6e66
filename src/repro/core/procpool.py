"""Forked worker processes over pipes: the lifecycle scale-out shares.

Data-parallel training (:class:`repro.train.parallel.ParallelWorkerPool`)
and sharded serving (:class:`repro.serve.workers.ShardedEngine`) both
fork N workers that answer one command per message on a private pipe
(the worker side runs :func:`serve_commands`).  :class:`ProcessPool`
holds that lifecycle once: spawn; send/recv that raise at once on a
dead worker, a missed reply deadline or a pipe closed mid-reply, and
re-raise what a worker shipped with :func:`send_error`; and an
idempotent ``close(timeout)`` (shutdown, join, terminate stragglers,
then :meth:`~ProcessPool._release` the subclass's shared segments) that
``__del__`` repeats, so a forgotten pool leaks nothing.  Subclasses pick
the exceptions callers see via :meth:`~ProcessPool._failure` and
:meth:`~ProcessPool._worker_error`.
"""

from __future__ import annotations

import multiprocessing
import time

__all__ = ["ProcessPool", "send_error", "serve_commands"]


def send_error(conn, error: BaseException) -> None:
    """Ship an exception to the parent, degrading to a plain message."""
    try:
        conn.send(("error", error))
    except Exception:
        try:
            conn.send(("error", RuntimeError(f"{type(error).__name__}: {error}")))
        except Exception:
            pass


def serve_commands(conn, handlers: dict) -> None:
    """Worker side: answer ``(command, *args)`` messages until shutdown.

    ``handlers`` maps a command to a callable taking the message's
    arguments and returning the reply payload.  ``("shutdown",)`` is
    acknowledged and ends the loop, as does a closed pipe; a handler's
    exception travels back as an error reply.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        command = message[0]
        try:
            if command == "shutdown":
                conn.send(("ok", None))
                return
            if command not in handlers:
                raise ValueError(f"unknown command {command!r}")
            conn.send(("ok", handlers[command](*message[1:])))
        except BaseException as error:
            send_error(conn, error)


class ProcessPool:
    """N forked workers, one pipe each, with a leak-free shutdown."""

    #: Names a worker in failure messages ("scoring worker 2 died ...").
    role = "worker"

    def __init__(self, worker_timeout_s: float) -> None:
        self.worker_timeout_s = float(worker_timeout_s)
        self._conns: list = []
        self._procs: list = []
        self._closed = False

    def _spawn(self, target, specs: list, name: str,
               start_method: str | None = None) -> None:
        """Start ``target(conn, spec)`` once per spec."""
        context = multiprocessing.get_context(start_method or "fork")
        self.start_method = context.get_start_method()
        for index, spec in enumerate(specs):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(target=target, args=(child_conn, spec),
                                      name=f"{name}-{index}", daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _failure(self, worker: int, what: str) -> Exception:
        """The exception for a dead, hung or vanished worker."""
        return RuntimeError(f"{self.role} {worker} {what}")

    def _worker_error(self, worker: int, error: BaseException) -> BaseException:
        """The exception for an error a worker replied with."""
        return error

    def _send(self, worker: int, message) -> None:
        """Send one command to ``worker``, surfacing its death."""
        try:
            self._conns[worker].send(message)
        except OSError as error:
            exitcode = self._procs[worker].exitcode
            raise self._failure(worker, f"died (exit code {exitcode})") from error

    def _recv(self, worker: int):
        """One reply off ``worker``'s pipe (raises worker-side errors)."""
        conn, process = self._conns[worker], self._procs[worker]
        deadline = time.monotonic() + self.worker_timeout_s
        while not conn.poll(0.05):
            if not process.is_alive():
                if conn.poll(0):  # drain a reply racing the exit
                    break
                raise self._failure(worker, f"died (exit code {process.exitcode})")
            if time.monotonic() >= deadline:
                raise self._failure(
                    worker, f"did not reply within {self.worker_timeout_s:g}s"
                )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as error:
            raise self._failure(worker, "exited unexpectedly") from error
        if status == "error":
            if not isinstance(payload, BaseException):
                payload = RuntimeError(str(payload))
            raise self._worker_error(worker, payload)
        return payload

    def _release(self) -> None:
        """Free what the subclass owns once its workers are gone."""

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker, then release owned resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(timeout):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for process in self._procs:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._release()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(timeout=1.0)
        except Exception:
            pass
