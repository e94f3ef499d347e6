"""Serving: deploy a fitted pipeline as a micro-batched inference service.

The paper frames its detector as an *online safety monitor* for deployed
driving systems; this subsystem is the deployment story.  Four pieces:

* **Artifact bundles** (:mod:`repro.serving.artifacts`) — a fitted
  pipeline saved as a versioned, hash-validated directory that loads
  identically in a fresh process (``save_bundle`` / ``load_bundle``).
* **Micro-batching** (:mod:`repro.serving.batcher`) — single-frame
  requests coalesced into batched VBP + autoencoder passes under a
  ``max_batch_size`` / ``max_wait_ms`` policy.
* **Worker pool** (:mod:`repro.serving.pool`) — multiprocess engine
  replicas, each loading the bundle itself, with round-robin dispatch,
  health checks, and restart-on-crash.
* **Admission control & QoS** (:mod:`repro.serving.admission` /
  :mod:`repro.serving.qos`) — per-client token-bucket quotas, a fixed
  set of priority classes drained by a weighted multi-queue, deadline-
  aware shedding, and an AIMD adaptive concurrency limit, all behind a
  JSON-configurable :class:`QosPolicy`; refusals are typed
  :class:`Rejected` outcomes.  The engine keeps its historical bounded-
  FIFO behavior (typed :class:`Overloaded` backpressure, per-request
  deadlines) when no policy is configured.

:mod:`repro.serving.service` adds a localhost socket frontend (length-
prefixed JSON), :mod:`repro.serving.loadgen` a load generator; the CLI
exposes them as ``repro serve`` and ``repro bench-serve``.  See
``docs/serving.md``.
"""

from repro.serving.admission import (
    REJECTION_REASONS,
    AdmissionController,
    AdmissionDecision,
    WeightedClassBatcher,
)
from repro.serving.artifacts import (
    BUNDLE_SCHEMA,
    BUNDLE_SCHEMA_VERSION,
    LoadedBundle,
    config_hash,
    load_bundle,
    manifest_sha256,
    read_manifest,
    save_bundle,
)
from repro.serving.batcher import MicroBatcher, QueuedRequest
from repro.serving.engine import EngineConfig, PipelineScorer, ServingEngine
from repro.serving.loadgen import (
    LoadReport,
    parse_priority_mix,
    run_load,
    run_mixed_load,
)
from repro.serving.pool import WorkerPool
from repro.serving.qos import (
    DEFAULT_CLASS,
    PRIORITY_CLASSES,
    AimdConfig,
    AimdLimiter,
    ClassPolicy,
    QosPolicy,
    RateLimit,
    ServiceTimeEstimator,
    TokenBucket,
    load_qos_policy,
)
from repro.serving.results import (
    BatchVerdicts,
    DeadlineExceeded,
    Degraded,
    Failed,
    Overloaded,
    PendingResult,
    Rejected,
    RequestOutcome,
    Scored,
    Scorer,
)
from repro.serving.service import ServingClient, ServingServer, recv_message, send_message

__all__ = [
    "BUNDLE_SCHEMA",
    "BUNDLE_SCHEMA_VERSION",
    "LoadedBundle",
    "config_hash",
    "load_bundle",
    "manifest_sha256",
    "read_manifest",
    "save_bundle",
    "MicroBatcher",
    "QueuedRequest",
    "EngineConfig",
    "PipelineScorer",
    "ServingEngine",
    "LoadReport",
    "parse_priority_mix",
    "run_load",
    "run_mixed_load",
    "WorkerPool",
    "AdmissionController",
    "AdmissionDecision",
    "REJECTION_REASONS",
    "WeightedClassBatcher",
    "DEFAULT_CLASS",
    "PRIORITY_CLASSES",
    "AimdConfig",
    "AimdLimiter",
    "ClassPolicy",
    "QosPolicy",
    "RateLimit",
    "ServiceTimeEstimator",
    "TokenBucket",
    "load_qos_policy",
    "BatchVerdicts",
    "DeadlineExceeded",
    "Degraded",
    "Failed",
    "Overloaded",
    "PendingResult",
    "Rejected",
    "RequestOutcome",
    "Scored",
    "Scorer",
    "ServingClient",
    "ServingServer",
    "recv_message",
    "send_message",
]
