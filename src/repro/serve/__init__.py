"""repro.serve — the distributed evaluation service.

A multi-tenant job queue, a worker fleet, and a namespaced artifact
store behind a stdlib HTTP/JSON front end.
Tenants submit batches of content-addressed cells (the same keys
:mod:`repro.engine` caches locally); the service executes each unique
cell exactly once fleet-wide and streams results back as JSONL.

Server side::

    from repro.serve import EvalServer, ServeConfig
    with EvalServer(ServeConfig(port=0, workers=4)) as server:
        print(server.url)          # e.g. http://127.0.0.1:43121

Client side — a :class:`ServeClient` is an executor, so any engine entry
point runs its cache misses on the fleet::

    from repro.engine import run_suite
    from repro.serve import ServeClient
    client = ServeClient("http://127.0.0.1:43121", tenant="alice")
    runs = run_suite(scale=0.1, executor=client)   # == run_suite(scale=0.1)

or, one level up, ``Session(remote="http://...", tenant="alice")`` from
:mod:`repro.api` runs ``run_suite`` / ``sweep`` / ``fuzz`` / ``tune``
through the service with byte-identical results, probing the local
cache first.

See ``docs/SERVICE.md`` for the architecture and the wire protocol.
"""

from .client import Backpressure, ServeClient, ServeError, suite_cells
from .protocol import PROTOCOL_VERSION, ProtocolError
from .queue import MAX_CELL_ATTEMPTS, Job, JobQueue
from .ratelimit import RateLimiter, TokenBucket
from .server import DEFAULT_BURST, DEFAULT_RATE, EvalServer, ServeConfig, \
    serve_forever
from .store import DEFAULT_NAMESPACE, LocalBackend, check_namespace
from .worker import Worker, WorkerFleet

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError",
    "Job", "JobQueue", "MAX_CELL_ATTEMPTS",
    "RateLimiter", "TokenBucket",
    "LocalBackend", "DEFAULT_NAMESPACE", "check_namespace",
    "Worker", "WorkerFleet",
    "EvalServer", "ServeConfig", "DEFAULT_RATE", "DEFAULT_BURST",
    "serve_forever",
    "ServeClient", "ServeError", "Backpressure", "suite_cells",
]
