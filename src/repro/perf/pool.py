"""A persistent fork-once worker pool for analysis campaigns.

A campaign that started its own worker processes would pay process
start-up plus a cold import graph in each worker on every call.  This
module keeps a small set of **forked** workers alive across campaign
calls:

* workers are forked once from the fully-imported parent, so they
  inherit the warm module graph — compiled bytecode, the interner's
  canonical module-level constants (``U32``, ``EMPTY_SET``,
  ``FULL_PORT_RANGE``, …) and every ``repro`` module already loaded —
  for free, read-only, via copy-on-write;
* per-chunk *mutable* state is still wiped: every chunk runs under
  :func:`repro.perf.cache.isolated` with a private recorder, exactly
  like a serial chunk, so per-chunk results and counters stay a pure
  function of the chunk's payloads (the serial == pooled identity gate);
* there is one kind of work message, ``("run", index, kind, payloads,
  trace, cache_on)``: each payload carries what its task reads, so
  nothing reaches a worker beside the chunk it runs;
* chunks are dispatched one-at-a-time per worker (a worker gets its
  next chunk when it finishes the last), which both load-balances and
  keeps at most one in-flight message per pipe — no pipe-buffer
  deadlocks.

Chunk→worker *assignment* is scheduling-dependent, and that is fine:
chunk *boundaries* are a pure function of the counts, and each chunk's
outcome is independent of which process runs it.  Results are
reassembled by chunk index.

A dead worker marks the pool broken (:class:`PoolBrokenError`); the
campaign layer falls back to an in-process rerun, which by the purity
contract produces identical output.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf import cache as _perf

ChunkOutcome = Tuple[List[Any], Dict[str, Any]]


class PoolBrokenError(RuntimeError):
    """A worker died; the pool is closed and must be recreated."""


class PoolTaskError(RuntimeError):
    """A task raised inside a worker; carries the worker's traceback text."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(conn: Any) -> None:
    """Worker loop: serve ``run`` messages until ``quit`` or EOF."""
    # Imported lazily (and found warm: the fork inherited the parent's
    # module graph) to keep pool module imports acyclic with campaign.
    from repro.perf.campaign import _run_chunk

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "quit":
            return
        _, index, kind, payloads, trace, cache_on = message
        try:
            # Fork-once workers never see later configure() calls in the
            # parent, so the parent's cache flag rides along per chunk.
            previous = _perf.enabled()
            _perf.configure(cache_on)
            try:
                results, counters = _run_chunk(kind, payloads, trace)
            finally:
                _perf.configure(previous)
            conn.send(("ok", index, results, counters))
        except BaseException as exc:  # noqa: B036 - workers must not die on task errors
            try:
                conn.send(("err", index, f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                return


class _Worker:
    """One forked worker process and its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn


class PersistentPool:
    """A reusable pool of forked campaign workers.

    ``run`` is thread-safe (serialized internally): the workers are a
    shared serial resource, so concurrent campaigns queue rather than
    interleave messages on the pipes.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise PoolBrokenError("fork start method unavailable")
        self._target = workers
        self._context = multiprocessing.get_context("fork")
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    @property
    def size(self) -> int:
        """How many workers are currently alive."""
        return len(self._workers)

    @property
    def target(self) -> int:
        """The configured maximum worker count."""
        return self._target

    @property
    def closed(self) -> bool:
        """True once the pool has been shut down (or broke)."""
        return self._closed

    def grow(self, workers: int) -> None:
        """Raise the worker target (existing workers are kept)."""
        with self._lock:
            if workers > self._target:
                self._target = workers

    def ensure_workers(self, needed: int) -> None:
        """Fork workers up to ``min(needed, target)`` (idempotent)."""
        with self._lock:
            self._ensure_locked(needed)

    def _ensure_locked(self, needed: int) -> None:
        if self._closed:
            raise PoolBrokenError("pool is closed")
        goal = max(1, min(needed, self._target))
        while len(self._workers) < goal:
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(process, parent_conn))

    def run(
        self,
        kind: str,
        chunks: Sequence[Sequence[Any]],
        trace: Any,
        cache_enabled: bool,
    ) -> List[ChunkOutcome]:
        """Run every chunk on the pool; outcomes in chunk order.

        Raises :class:`PoolBrokenError` when a worker dies (the pool is
        closed first) and :class:`PoolTaskError` when a task raises —
        the error of the lowest-indexed failing chunk, after draining.
        """
        with self._lock:
            self._ensure_locked(len(chunks))
            workers = self._workers[: max(1, min(len(chunks), self._target))]
            try:
                return self._dispatch_locked(
                    workers, kind, chunks, trace, cache_enabled
                )
            except PoolBrokenError:
                self._close_locked()
                raise

    def _dispatch_locked(
        self,
        workers: List[_Worker],
        kind: str,
        chunks: Sequence[Sequence[Any]],
        trace: Any,
        cache_enabled: bool,
    ) -> List[ChunkOutcome]:
        outcomes: Dict[int, ChunkOutcome] = {}
        errors: Dict[int, str] = {}
        busy: Dict[Any, _Worker] = {}
        idle = list(workers)
        next_chunk = 0

        def send_next(worker: _Worker) -> None:
            nonlocal next_chunk
            index = next_chunk
            next_chunk += 1
            try:
                worker.conn.send(
                    ("run", index, kind, list(chunks[index]), trace,
                     cache_enabled)
                )
            except (OSError, ValueError) as exc:
                raise PoolBrokenError(f"worker pipe failed: {exc}") from exc
            busy[worker.conn] = worker

        while len(outcomes) + len(errors) < len(chunks):
            while idle and next_chunk < len(chunks):
                send_next(idle.pop())
            if not busy:
                break
            ready = multiprocessing.connection.wait(list(busy))
            for conn in ready:
                worker = busy.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise PoolBrokenError(
                        f"worker died mid-chunk: {exc}"
                    ) from exc
                tag, index = reply[0], reply[1]
                if tag == "ok":
                    outcomes[index] = (reply[2], reply[3])
                else:
                    errors[index] = reply[2]
                idle.append(worker)
        if errors:
            first = min(errors)
            raise PoolTaskError(f"chunk {first}: {errors[first]}")
        if len(outcomes) != len(chunks):
            raise PoolBrokenError("pool drained without completing all chunks")
        return [outcomes[index] for index in range(len(chunks))]

    def close(self) -> None:
        """Terminate all workers; the pool cannot be reused."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("quit",))
            except (OSError, ValueError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
        self._workers = []


# ------------------------------------------------------------- shared pool

_SHARED: Optional[PersistentPool] = None
_SHARED_LOCK = threading.Lock()


def get_shared_pool(workers: int) -> PersistentPool:
    """The process-wide pool, grown to at least ``workers`` targets.

    Created on first use and reused by every campaign (serve, loadgen,
    netlint, benchmarks) until :func:`shutdown_shared_pool`.  A broken
    pool is replaced transparently.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None or _SHARED.closed:
            _SHARED = PersistentPool(workers)
        else:
            _SHARED.grow(workers)
        return _SHARED


def warm_pool(workers: int) -> PersistentPool:
    """Pre-fork the shared pool's workers (call before starting threads)."""
    pool = get_shared_pool(workers)
    pool.ensure_workers(workers)
    return pool


def shutdown_shared_pool() -> None:
    """Close the shared pool if one exists (idempotent)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.close()
            _SHARED = None


atexit.register(shutdown_shared_pool)


__all__ = [
    "PersistentPool",
    "PoolBrokenError",
    "PoolTaskError",
    "fork_available",
    "get_shared_pool",
    "shutdown_shared_pool",
    "warm_pool",
]
