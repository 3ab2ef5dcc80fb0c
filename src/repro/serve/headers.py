"""HTTP header names shared by the server, the wire codec and the client.

This module imports nothing, so the codec (loaded by every serve worker)
learns a header name without loading the client's HTTP stack.
"""

__all__ = ["TRACE_HEADER"]

#: Response (and accepted request) header carrying the request's trace id.
TRACE_HEADER = "X-Repro-Trace-Id"
