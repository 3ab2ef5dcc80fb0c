"""A thin stdlib client for :mod:`repro.serve` — ``urllib`` only.

The client speaks the same structured-error contract the server promises:
any non-2xx response parses its ``{"error", "detail"}`` JSON body and is
re-raised as the matching :class:`~repro.errors.ServeError` (status code,
error slug, and ``Retry-After`` preserved), so callers handle overload
and validation failures with one ``except ServeError`` — no
``urllib.error`` or socket types leak out.  When no response arrives the
error has ``status=None``: ``error="unreachable"`` if the connection was
refused or closed before the response was complete, ``error="timeout"``
if the server stayed silent for ``timeout`` seconds.

Stdlib only: a load generator imports this module without loading the
rest of the library.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional

from repro.errors import ServeError
from repro.serve.headers import TRACE_HEADER

__all__ = ["ServeClient"]


class ServeClient:
    """HTTP client for one :class:`~repro.serve.server.ReproServer`.

    ``last_trace_id`` holds the :data:`TRACE_HEADER` value of the most
    recent response (success or structured error) — feed it straight to
    :meth:`trace` to pull the request's span tree.

    >>> client = ServeClient("http://127.0.0.1:8421")    # doctest: +SKIP
    >>> client.classify({"topology": "path", "n": 8})    # doctest: +SKIP
    >>> client.trace(client.last_trace_id)               # doctest: +SKIP
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.last_trace_id: Optional[str] = None

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[Mapping[str, Any]] = None):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
                ctype = resp.headers.get("Content-Type", "")
                self.last_trace_id = resp.headers.get(TRACE_HEADER,
                                                      self.last_trace_id)
        except urllib.error.HTTPError as exc:
            self.last_trace_id = exc.headers.get(TRACE_HEADER,
                                                 self.last_trace_id)
            raise self._error_from(exc) from None
        except urllib.error.URLError as exc:
            raise ServeError(
                f"cannot reach {self.base_url}: {exc.reason}",
                status=None, error="unreachable",
            ) from None
        except TimeoutError:
            raise ServeError(
                f"no response from {self.base_url} within {self.timeout}s",
                status=None, error="timeout",
            ) from None
        except (ConnectionError, http.client.HTTPException) as exc:
            raise ServeError(
                f"connection to {self.base_url} lost: {exc!r}",
                status=None, error="unreachable",
            ) from None
        if ctype.startswith("application/json"):
            return json.loads(raw.decode("utf-8"))
        return raw.decode("utf-8")

    @staticmethod
    def _error_from(exc: urllib.error.HTTPError) -> ServeError:
        slug, detail = "http-error", f"HTTP {exc.code}"
        try:
            body = json.loads(exc.read().decode("utf-8"))
            slug = body.get("error", slug)
            detail = body.get("detail", detail)
        except (ValueError, UnicodeDecodeError):
            pass
        retry_after = None
        raw_retry = exc.headers.get("Retry-After")
        if raw_retry is not None:
            try:
                retry_after = float(raw_retry)
            except ValueError:
                pass
        return ServeError(detail, status=exc.code, error=slug,
                          retry_after=retry_after)

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition page."""
        return self._request("GET", "/metrics")

    def trace(self, trace_id: str) -> dict:
        """The reconstructed span tree for ``trace_id`` (404 → ServeError)."""
        return self._request("GET", f"/v1/trace/{trace_id}")

    def classify(self, spec: Mapping[str, Any]) -> dict:
        return self._request("POST", "/v1/classify", {"spec": dict(spec)})

    def region(self, spec: Mapping[str, Any], *,
               direction: Optional[Mapping[Any, Any]] = None) -> dict:
        """The exact stability frontier along a ray (``/v1/region``).

        ``direction`` maps injection nodes to rates (ints or exact
        rational strings); omit it for the nominal injection ray, where
        the response also carries the Definitions 3–4 classification.
        """
        payload: dict[str, Any] = {"spec": dict(spec)}
        if direction is not None:
            payload["direction"] = {str(k): v for k, v in direction.items()}
        return self._request("POST", "/v1/region", payload)

    def simulate(self, spec: Mapping[str, Any], *, horizon: int = 1000,
                 seed: int = 0, loss_p: float = 0.0) -> dict:
        return self._request("POST", "/v1/simulate", {
            "spec": dict(spec), "horizon": horizon,
            "seed": seed, "loss_p": loss_p,
        })

    def submit_sweep(self, request: Mapping[str, Any]) -> dict:
        return self._request("POST", "/v1/sweeps", dict(request))

    def sweep_status(self, job_id: str, *, records: bool = False) -> dict:
        suffix = "?records=1" if records else ""
        return self._request("GET", f"/v1/sweeps/{job_id}{suffix}")

    def wait_sweep(self, job_id: str, *, timeout: float = 60.0,
                   poll: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.sweep_status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"sweep {job_id} still {status['state']} after {timeout}s",
                    status=None, error="timeout",
                )
            time.sleep(poll)
