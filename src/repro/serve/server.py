"""The stdlib HTTP/JSON front end: ``python -m repro serve``.

One :class:`EvalServer` owns the whole service stack — namespaced store,
dedup queue, worker fleet, per-tenant rate limiter — and exposes it over
a :class:`ThreadingHTTPServer` (each request handled on its own thread;
all shared state is lock-guarded in the queue/fleet/limiter layers).

Routes (all JSON unless noted)::

    GET  /v1/healthz                     liveness + protocol version
    GET  /v1/stats                       queue depth, worker utilization,
                                         per-namespace cache stats,
                                         rate-limiter balances
    POST /v1/jobs                        batch submission (tenant, kind,
                                         cells=[{key, spec}]); 400 when a
                                         key is not its spec's key; 429
                                         with structured backpressure when
                                         the tenant's token bucket is
                                         empty
    GET  /v1/jobs?tenant=T               job listing
    GET  /v1/jobs/<id>                   one job's status
    GET  /v1/jobs/<id>/results?wait=S    JSONL result stream (one line
                                         per cell, submission order);
                                         202 + status while not done

No route writes the store: only the worker fleet does, with the
successes it computed itself.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlparse

from ..obs.trace import span as obs_span
from . import protocol
from .queue import JobQueue
from .ratelimit import DEFAULT_BURST, DEFAULT_RATE, RateLimiter
from .store import LocalBackend, check_namespace
from .worker import WorkerFleet


@dataclass
class ServeConfig:
    """Deployment knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8732                      # 0 = ephemeral (tests)
    workers: int = 2
    cache_dir: Union[None, str, Path] = None
    rate: float = DEFAULT_RATE            # submissions/second per tenant
    burst: int = DEFAULT_BURST            # burst capacity per tenant


#: Longest long-poll a ``/results?wait=S`` request may ask for (seconds).
MAX_RESULTS_WAIT_S = 300.0


@dataclass
class _ServerState:
    """The live subsystems one handler instance reaches through."""

    store: LocalBackend
    queue: JobQueue
    fleet: WorkerFleet
    limiter: RateLimiter
    submissions: int = 0


class _Handler(BaseHTTPRequestHandler):
    """Request router; state lives on the server object, not the handler."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # BaseHTTPRequestHandler logs to stderr per request; the service
    # reports through spans and /v1/stats instead.
    def log_message(self, fmt: str, *args) -> None:  # noqa: D102
        pass

    @property
    def state(self) -> _ServerState:
        """The owning server's shared state."""
        return self.server.state  # type: ignore[attr-defined]

    # -- response plumbing -------------------------------------------------

    def _send_json(self, status: int, body: dict) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_body(self, status: int, code: str, message: str,
                         **details) -> None:
        self._send_json(status, protocol.error_body(code, message,
                                                    **details))

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise protocol.ProtocolError("request body must be an object")
        return body

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "healthz"]:
                self._send_json(200, protocol.ok_body(status="ok"))
            elif parts == ["v1", "stats"]:
                self._get_stats()
            elif parts == ["v1", "jobs"]:
                self._get_jobs(parse_qs(url.query))
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._get_job(parts[2])
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "results":
                self._get_results(parts[2], parse_qs(url.query))
            else:
                self._send_error_body(404, "not_found",
                                      f"no route {url.path!r}")
        except Exception as exc:  # noqa: BLE001 - handler must answer
            self._send_error_body(400, "bad_request", str(exc))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if parts == ["v1", "jobs"]:
                self._post_job()
            else:
                self._send_error_body(404, "not_found",
                                      f"no route {self.path!r}")
        except Exception as exc:  # noqa: BLE001 - handler must answer
            self._send_error_body(400, "bad_request", str(exc))

    # -- job endpoints -----------------------------------------------------

    def _post_job(self) -> None:
        state = self.state
        body = self._read_body()
        tenant, kind, cells = protocol.validate_submission(body)
        check_namespace(tenant)
        protocol.check_keys(kind, cells)

        ok, retry_after = state.limiter.check(tenant)
        if not ok:
            self._send_error_body(
                429, "rate_limited",
                f"tenant {tenant!r} exceeded its submission budget",
                tenant=tenant, retry_after_s=round(retry_after, 3))
            return

        with obs_span("serve.submit", tenant=tenant, kind=kind,
                      cells=len(cells)):
            # Tenant-namespace warm hits never enter the queue at all.
            precomputed: dict[str, dict] = {}
            for cell in cells:
                key = cell["key"]
                if key in precomputed:
                    continue
                hit = state.store.get(tenant, key)
                if hit is not None:
                    precomputed[key] = hit
            for cell in cells:
                if cell["key"] not in precomputed:
                    state.fleet.subscribe(cell["key"], tenant)
            job = state.queue.submit(
                tenant, kind, [(c["key"], c["spec"]) for c in cells],
                precomputed=precomputed)
        state.submissions += 1
        self._send_json(200, protocol.ok_body(
            job=protocol.job_to_dict(job)))

    def _get_jobs(self, query: dict) -> None:
        tenant = (query.get("tenant") or [None])[0]
        jobs = self.state.queue.jobs(tenant)
        self._send_json(200, protocol.ok_body(
            jobs=[protocol.job_to_dict(j) for j in jobs]))

    def _get_job(self, job_id: str) -> None:
        job = self.state.queue.job(job_id)
        if job is None:
            self._send_error_body(404, "not_found",
                                  f"no such job {job_id!r}")
            return
        self._send_json(200, protocol.ok_body(
            job=protocol.job_to_dict(job)))

    def _get_results(self, job_id: str, query: dict) -> None:
        state = self.state
        job = state.queue.job(job_id)
        if job is None:
            self._send_error_body(404, "not_found",
                                  f"no such job {job_id!r}")
            return
        wait = min(float((query.get("wait") or ["0"])[0]), MAX_RESULTS_WAIT_S)
        if wait > 0:
            state.queue.wait_job(job_id, timeout=wait)
        if not job.done:
            self._send_json(202, protocol.ok_body(
                job=protocol.job_to_dict(job)))
            return
        # JSONL stream: one line per cell, submission order.
        lines = [json.dumps({"key": key, "payload": job.results[key]},
                            sort_keys=True)
                 for key in job.keys]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # -- stats -------------------------------------------------------------

    def _get_stats(self) -> None:
        state = self.state
        self._send_json(200, protocol.ok_body(
            queue=state.queue.stats(),
            fleet=state.fleet.stats(),
            cache=state.store.stats(),
            ratelimit={"rate": state.limiter.rate,
                       "burst": state.limiter.burst,
                       "tokens": state.limiter.snapshot()},
            submissions=state.submissions))


class EvalServer:
    """The assembled service: store + queue + fleet + HTTP front end.

    Usable embedded (tests construct one on an ephemeral port inside the
    test process, where the engine counters then measure fleet work
    directly) or standalone via :func:`serve_forever` (the CLI).
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.store = LocalBackend(self.config.cache_dir)
        self.queue = JobQueue()
        self.fleet = WorkerFleet(self.queue, self.store,
                                 workers=self.config.workers)
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self._http = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._http.daemon_threads = True
        self._http.state = _ServerState(  # type: ignore[attr-defined]
            store=self.store, queue=self.queue, fleet=self.fleet,
            limiter=self.limiter)
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EvalServer":
        """Launch the fleet and the HTTP listener (returns self)."""
        self.fleet.start()
        self._serve_thread = threading.Thread(
            target=self._http.serve_forever, name="serve-http",
            daemon=True)
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Shut everything down in dependency order."""
        self.queue.close()
        self._http.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self.fleet.stop()
        self._http.server_close()

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def serve_forever(config: ServeConfig) -> int:
    """Run a server until interrupted (the CLI entry point's body)."""
    server = EvalServer(config)
    server.start()
    print(f"repro-serve listening on {server.url} "
          f"(workers={config.workers}, rate={config.rate}/s, "
          f"burst={config.burst})")
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        print("shutting down ...")
        server.stop()
    return 0
