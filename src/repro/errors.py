"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still discriminating the finer-grained categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class GraphError(ReproError):
    """Structural problem with a multigraph (unknown node, bad edge, ...)."""


class FlowError(ReproError):
    """A max-flow / min-cut computation was invoked on invalid input."""


class InfeasibleNetworkError(ReproError):
    """An operation required a feasible S-D-network but got an infeasible one.

    Feasibility is in the sense of Definition 3 of the paper: there must
    exist an :math:`s^*`-:math:`d^*` flow in the extended graph ``G*``
    saturating every virtual source link.
    """


class SpecError(ReproError):
    """A network specification (roles, rates, retention R) is inconsistent."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ObservabilityError(ReproError):
    """The observability layer (tracing, metrics, profiling) was misused.

    Raised for emitting to a closed sink, registering one metric name
    under two kinds, and reading a corrupt or empty trace.
    """


class SweepError(ReproError):
    """A parameter-sweep grid, executor, or checkpoint was misused.

    Raised for malformed grid specs (duplicate axes, ragged zipped groups),
    executor misconfiguration, and corrupt or mismatched checkpoint files.
    """


class LoadGenError(ReproError):
    """A :mod:`repro.loadgen` schedule or run was misconfigured.

    Raised for non-positive rates, empty schedules, impossible
    concurrency bounds, and SLO specs with no criteria at all.
    """


class ServeError(ReproError):
    """A :mod:`repro.serve` request failed (client- or server-side).

    Carries the HTTP mapping alongside the message so the server can
    render a structured ``{error, detail}`` JSON body and the client can
    re-raise responses symmetrically.

    Attributes
    ----------
    status:
        HTTP status code (``4xx`` for request problems, ``5xx`` for
        server faults, ``None`` when no response arrived at all).
    error:
        Short machine-readable slug (``bad-request``, ``overloaded``,
        ``not-found``, ...) — the ``error`` field of the JSON body.
    retry_after:
        Seconds after which a shed (``429``) request may be retried.
    """

    def __init__(
        self,
        detail: str,
        *,
        status: "int | None" = 400,
        error: str = "bad-request",
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(detail)
        self.detail = detail
        self.status = status
        self.error = error
        self.retry_after = retry_after
