"""Monitoring as a service: async broker over a persistent worker pool.

The paper's architecture is evaluated one frame at a time; the episode
engine (:mod:`repro.core.engine`) scaled that to many concurrent
streams inside one process.  This package is the *serving* layer the
ROADMAP's "millions of users" north star asks for:

* :class:`ServeBroker` — an asyncio front-end accepting zone-check and
  episode-step requests from many concurrent clients, batching them
  work-conservingly — whatever is queued when the wave thread comes
  free becomes the next wave, with no batching timer — and feeding
  each admitted wave into one shared
  :class:`repro.core.engine.EpisodeScheduler` as a single joint pass.  Backpressure is explicit: the admission queue is
  bounded and an over-capacity request is *shed with a typed rejection*
  (:class:`AdmissionRejected`) — a safety check is never silently
  dropped or partially answered.
* :class:`PersistentWorkerPool` — the multi-core backend that replaced
  the fork-per-call ``multiprocessing.Pool`` of ``EpisodeScheduler``
  (``workers=N``): worker processes are forked **once**, the model is
  shipped once (inherited copy-on-write at fork), and frames cross the
  process boundary through a :class:`FrameRing` of shared-memory slots
  as zero-copy numpy views.  Per-episode RNG state still round-trips
  with every task, so ``workers=N`` remains bit-for-bit identical to
  inline execution.
* :func:`run_doctor` — a doctor-style operational self-check (platform
  facts, fork availability, requested vs *effective* worker count,
  shared-memory round-trip, live broker end-to-end probe, and a fault
  drill that kills a live worker mid-wave), runnable as
  ``python -m repro.serve.doctor``.
* **Fault tolerance** — the pool supervises its workers (liveness
  watch, capped respawns, ticket reclamation), requests carry
  monotonic-clock deadlines resolved with a typed fail-safe
  :class:`CheckTimedOut`, and a :class:`~repro.serve.breaker.
  CircuitBreaker` degrades persistent pool faults onto the
  bit-identical inline path.  :mod:`repro.serve.chaos` injects every
  one of those faults deterministically so the claims stay tested.
"""

from repro.serve.broker import (
    AdmissionRejected,
    ServeBroker,
    ServeConfig,
    serve_workers_default,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.faults import (
    CheckTimedOut,
    WorkerPoolError,
    conservative_reject,
)
from repro.serve.pool import PersistentWorkerPool, fork_available
from repro.serve.shm import FrameRing, FrameTicket, attach_frame

__all__ = [
    "AdmissionRejected",
    "CheckTimedOut",
    "CircuitBreaker",
    "FrameRing",
    "FrameTicket",
    "PersistentWorkerPool",
    "ServeBroker",
    "ServeConfig",
    "WorkerPoolError",
    "attach_frame",
    "conservative_reject",
    "fork_available",
    "format_doctor_report",
    "run_doctor",
    "serve_workers_default",
]


def __getattr__(name: str):
    # The doctor is imported lazily so `python -m repro.serve.doctor`
    # does not re-execute a module the package import already loaded
    # (runpy would warn about unpredictable double execution).
    if name in ("format_doctor_report", "run_doctor"):
        from repro.serve import doctor

        return getattr(doctor, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
