"""Resilience-as-a-service: the persistent ``repro serve`` engine.

The package splits into four layers, each usable on its own:

- :mod:`.cache` — :class:`ContentCache`, the thread-safe LRU every
  expensive artefact (rendered responses, exact-DP memos) lives in,
  keyed by :func:`repro.api.canonical_hash` content addresses.
- :mod:`.engine` — the one implementation of the ``solve`` /
  ``simulate`` / ``dag/optimize`` endpoints (:func:`~.engine.normalise`
  a request, then :func:`~.engine.execute` it; the CLI runs the same
  two steps), and :class:`Engine`, which wraps them in the cache,
  per-request thread-local instrumentation and a cumulative mergeable
  metrics pool.
- :mod:`.jobs` — :class:`JobQueue`, worker threads draining queued
  campaigns with a queued/running/done/failed/cancelled lifecycle.
- :mod:`.http` — the stdlib ``ThreadingHTTPServer`` front-end
  (:func:`make_server` / :func:`serve`), wired to ``repro serve``.
"""

from .cache import ContentCache
from .engine import ENDPOINTS, Engine, EngineResponse
from .http import ReproServer, make_server, serve
from .jobs import Job, JobQueue

__all__ = [
    "ContentCache",
    "Engine",
    "EngineResponse",
    "ENDPOINTS",
    "Job",
    "JobQueue",
    "ReproServer",
    "make_server",
    "serve",
]
