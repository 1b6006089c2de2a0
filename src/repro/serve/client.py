"""Client side of the evaluation service: HTTP access and the remote
executor.

:class:`ServeClient` wraps the wire protocol (submission with
backpressure-aware retry, long-polled JSONL result streaming, job and
stats queries), and is itself an executor for
:func:`repro.engine.pool.run_cached`: its :meth:`ServeClient.run` sends
one batch of cache misses as one job and returns the decoded results in
input order.  Passing a client as the executor of ``run_suite``,
``run_sweep``, ``run_campaign`` or ``run_tune`` — or setting
``Session(remote=...)`` — therefore runs the same specs under the same
content-addressed keys as a local run, and the results are
**byte-identical** (``tests/serve/test_remote_parity.py``):

* the client builds the same programs, specs and keys the local engine
  would build, and probes the local cache first;
* the server executes each unique cell through the kind's own code
  (:func:`~repro.engine.cells.execute_cell` for evaluation cells);
* failures are delivered but stored nowhere, locally or on the server.

Backpressure: a 429 response carries ``retry_after_s``; the client
sleeps exactly that long (bounded) and retries up to
:data:`MAX_BACKPRESSURE_RETRIES` times before raising
:class:`Backpressure` with the structured details attached.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

from ..core.heuristics import FeedbackHeuristics
from ..engine.cells import CellSpec, cell_grid
from ..obs.trace import span as obs_span
from . import protocol

#: 429 retries before :class:`Backpressure` propagates to the caller.
MAX_BACKPRESSURE_RETRIES = 5

#: Cap on one backpressure sleep (a misconfigured server cannot park the
#: client for minutes).
MAX_RETRY_SLEEP_S = 10.0


class ServeError(RuntimeError):
    """The server answered with a structured error envelope."""

    def __init__(self, status: int, code: str, message: str,
                 details: Optional[dict] = None):
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.details = details or {}


class Backpressure(ServeError):
    """Rate-limit rejections outlasted every retry."""


class ServeClient:
    """One tenant's HTTP handle on a serve instance."""

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self._sleep = sleep

    # -- HTTP plumbing -----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> tuple[int, bytes]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def _json(self, method: str, path: str,
              body: Optional[dict] = None) -> dict:
        """One request decoded as JSON; structured errors raise."""
        status, raw = self._request(method, path, body)
        decoded = json.loads(raw.decode("utf-8"))
        if "error" in decoded:
            err = decoded["error"]
            cls = Backpressure if err.get("code") == "rate_limited" \
                else ServeError
            raise cls(status, err.get("code", "?"),
                      err.get("message", ""), err)
        return decoded

    # -- core API ----------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness probe (raises on protocol mismatch)."""
        return protocol.check_protocol(
            self._json("GET", "/v1/healthz"), "healthz")

    def stats(self) -> dict:
        """The server's stats snapshot."""
        return self._json("GET", "/v1/stats")

    def submit_cells(self, cells: list[tuple[str, dict]],
                     kind: str = "cells") -> dict:
        """Submit one batch; returns the job record dict.

        Honors structured backpressure: each 429 sleeps the advertised
        ``retry_after_s`` (capped) and retries; persistent rejection
        raises :class:`Backpressure`.
        """
        body = {"protocol": protocol.PROTOCOL_VERSION,
                "tenant": self.tenant, "kind": kind,
                "cells": [{"key": k, "spec": s} for k, s in cells]}
        last: Optional[Backpressure] = None
        for _ in range(MAX_BACKPRESSURE_RETRIES + 1):
            try:
                resp = self._json("POST", "/v1/jobs", body)
                return resp["job"]
            except Backpressure as exc:
                last = exc
                self._sleep(min(float(exc.details.get("retry_after_s", 1.0)),
                                MAX_RETRY_SLEEP_S))
        raise last  # type: ignore[misc]  # loop ran at least once

    def job(self, job_id: str) -> dict:
        """One job's status record."""
        return self._json("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self, all_tenants: bool = False) -> list[dict]:
        """Job listing (this tenant's by default)."""
        query = "" if all_tenants else f"?tenant={self.tenant}"
        return self._json("GET", f"/v1/jobs{query}")["jobs"]

    def results(self, job_id: str,
                poll_s: float = 2.0) -> list[tuple[str, dict]]:
        """Block until *job_id* finishes; returns ``[(key, payload)]``.

        Uses the server's long-poll (bounded per request by the client
        timeout) and falls back to re-polling on 202.
        """
        wait = max(1.0, min(poll_s * 10, self.timeout / 2))
        while True:
            status, raw = self._request(
                "GET", f"/v1/jobs/{job_id}/results?wait={wait}")
            if status == 202:
                self._sleep(poll_s)
                continue
            if status != 200:
                decoded = json.loads(raw.decode("utf-8"))
                err = decoded.get("error", {})
                raise ServeError(status, err.get("code", "?"),
                                 err.get("message", ""), err)
            out = []
            for line in raw.decode("utf-8").splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                out.append((record["key"], record["payload"]))
            return out

    def run_cells(self, cells: list[tuple[str, dict]],
                  kind: str = "cells") -> dict[str, dict]:
        """Submit + wait; returns ``{key: payload}`` for the batch."""
        job = self.submit_cells(cells, kind=kind)
        return dict(self.results(job["job_id"]))

    # -- executor interface --------------------------------------------------

    def run(self, kind, cells: list, programs: Optional[dict] = None
            ) -> list:
        """Run ``[(key, spec)]`` *cells* of one cell *kind* as one job.

        The executor interface of :func:`repro.engine.pool.run_cached`:
        returns the decoded results in input order.  *programs* is
        unused (specs carry their programs).
        """
        batch = [(key, protocol.spec_to_payload(kind.name, spec))
                 for key, spec in cells]
        with obs_span("serve.client.batch", tenant=self.tenant,
                      kind=kind.name, cells=len(batch)):
            payloads = self.run_cells(batch, kind=kind.name)
        return [kind.decode(payloads[key]) for key, _ in cells]

    def __repr__(self) -> str:
        return f"ServeClient({self.base_url!r}, tenant={self.tenant!r})"


# -- suite grid ------------------------------------------------------------

def suite_cells(programs: dict, heur: FeedbackHeuristics,
                config_overrides: Optional[dict], max_steps: int
                ) -> list[tuple[str, str, str, CellSpec, dict]]:
    """The suite's cell grid: (name, scheme, key, spec, spec-payload).

    :func:`~repro.engine.cells.cell_grid` plus each spec's wire payload,
    so the client, the bench harness, and the CI smoke job derive
    *identical* cells for identical inputs — the dedup and warm-replay
    assertions depend on that.
    """
    return [(name, scheme, key, spec, protocol.cellspec_to_payload(spec))
            for name, scheme, spec, key in cell_grid(
                programs, heur, config_overrides, max_steps)]
