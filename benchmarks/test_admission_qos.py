"""Benchmark: admission control isolates critical traffic at 2x saturation.

The QoS claim is an SLO, not a throughput number: with a 10/90
critical/batch client population offering *twice* the backend's sustained
capacity, admission control (per-client quotas on the batch fleet, the
weighted multi-queue, AIMD) must keep the critical class essentially
unaffected.  Gates:

* critical goodput under overload >= 95% of its unloaded goodput,
* critical p99 latency under overload <= 1.5x its unloaded p99,
* typed-outcome accounting balances exactly — every request the load
  offered resolves to exactly one typed outcome, zero silent drops.

The backend is a deterministic sleep-scorer with *constant per-batch*
service time (GPU-like: a micro-batch costs one kernel launch whether it
carries one frame or eight).  That choice is load-bearing for the gates:
with per-frame service, per-client cycle time depends on how the
closed-loop critical clients happen to coalesce into batches, and both
gated ratios measure phase-locking luck instead of queueing policy.
With constant batch service, a client's cycle is ``batch window +
service`` no matter who shares its batch, so the unloaded baseline is
reproducible and any loaded regression is genuinely admission's fault.

Capacity is quoted in worst-case (unbatched) requests/s — ``replicas /
batch_service_s`` — because admitted batch-class strays are scored as
singletons; "2x saturation" means the batch fleet alone offers twice
what the backend could serve even one-request-per-batch.
"""

import threading
import time

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.serving import (
    AimdConfig,
    BatchVerdicts,
    ClassPolicy,
    EngineConfig,
    QosPolicy,
    RateLimit,
    Scorer,
    ServingEngine,
    run_mixed_load,
)

FRAME_SHAPE = (8, 8)
#: Constant service time per micro-batch, regardless of batch size.
#: Deliberately coarse (10 ms) so the gated ratios measure queueing
#: policy, not sub-millisecond GIL scheduling noise from the 20-thread
#: client population.
BATCH_SERVICE_S = 0.01
REPLICAS = 4
MAX_BATCH = 4

#: 10/90 critical/batch client population.  Two critical clients can
#: occupy at most two of the four replicas, so an unloaded critical
#: request is never queued behind its own fleet — the baseline measures
#: pure service time and the loaded phase isolates admission's effect.
CRITICAL_CLIENTS = 2
BATCH_CLIENTS = 18
REQUESTS_PER_CLIENT = 150

#: Worst-case (one request per batch) capacity in requests/s, and the
#: overload multiple the batch fleet offers against it.
CAPACITY_RPS = REPLICAS / BATCH_SERVICE_S
SATURATION_MULTIPLE = 2.0

#: Each batch client's admitted quota — the fleet together is held to a
#: few percent of capacity no matter how hard it offers.
BATCH_CLIENT_RATE = RateLimit(rate_per_s=0.5, burst=1.0)

GOODPUT_GATE = 0.95
P99_GATE = 1.5


class _SleepScorer(Scorer):
    """Deterministic GPU-like backend: every micro-batch costs
    ``BATCH_SERVICE_S`` of service time regardless of how many frames it
    carries, scored concurrently by ``REPLICAS`` dispatch threads."""

    replicas = REPLICAS
    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        n = len(frames)
        time.sleep(BATCH_SERVICE_S)
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


def _policy() -> QosPolicy:
    return QosPolicy(
        classes={
            "critical": ClassPolicy(weight=16.0, sheddable=False),
            "interactive": ClassPolicy(weight=4.0),
            "batch": ClassPolicy(weight=1.0, queue_capacity=32),
        },
        client_rate_limits={
            f"batch-{i}": BATCH_CLIENT_RATE for i in range(BATCH_CLIENTS)
        },
        aimd=AimdConfig(initial=64),
    )


def _critical_load(engine, frames, requests_per_client=REQUESTS_PER_CLIENT):
    """The critical closed loop, identical in both phases."""
    return run_mixed_load(
        lambda frame, qos_class, client_id: engine.infer(
            frame, qos_class=qos_class, client_id=client_id
        ),
        frames,
        {"critical": 1},
        clients=CRITICAL_CLIENTS,
        requests_per_client=requests_per_client,
    )


def _saturate_batch(engine, frames, stop, counts, lock):
    """One paced batch client: offers at its share of 2x capacity and
    records every typed outcome it receives (nothing may vanish)."""
    period = BATCH_CLIENTS / (SATURATION_MULTIPLE * CAPACITY_RPS)

    def _client(index):
        client_id = f"batch-{index}"
        k = 0
        # Stagger start offsets across one period so the fleet offers a
        # smooth 2x rather than a phase-locked herd — eighteen clients
        # waking on the same tick monopolize the GIL in bursts that show
        # up in critical's p99 as scheduler noise, not queueing.
        stop.wait(index * period / BATCH_CLIENTS)
        while not stop.is_set():
            started = time.perf_counter()
            outcome = engine.infer(
                frames[k % len(frames)], qos_class="batch", client_id=client_id
            )
            k += 1
            with lock:
                counts[outcome.status] = counts.get(outcome.status, 0) + 1
            remaining = period - (time.perf_counter() - started)
            if remaining > 0:
                stop.wait(remaining)

    threads = [
        threading.Thread(target=_client, args=(i,), name=f"saturator-{i}", daemon=True)
        for i in range(BATCH_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    return threads


def test_admission_protects_critical_at_2x_saturation(benchmark, report):
    frames = [np.full(FRAME_SHAPE, i / 16) for i in range(16)]

    def _measure():
        engine = ServingEngine(
            _SleepScorer(),
            EngineConfig(
                max_batch_size=MAX_BATCH,
                max_wait_ms=1.0,
                queue_capacity=256,
                qos=_policy(),
            ),
        )
        try:
            # Warm the dispatch path, thread pool, and allocator — the
            # first few hundred requests of a cold engine run measurably
            # slower and would skew whichever phase went first.
            warm = _critical_load(engine, frames, requests_per_client=25)

            # Phase 1: critical fleet alone — the unloaded baseline.
            unloaded = _critical_load(engine, frames)

            # Phase 2: the same critical drive while 18 batch clients
            # offer 2x the backend's capacity for the whole window.
            stop = threading.Event()
            batch_counts = {}
            lock = threading.Lock()
            saturators = _saturate_batch(engine, frames, stop, batch_counts, lock)
            try:
                loaded = _critical_load(engine, frames)
            finally:
                stop.set()
                for thread in saturators:
                    thread.join(30.0)
            stats = engine.stats()
        finally:
            engine.close()
        return warm, unloaded, loaded, batch_counts, stats

    warm, unloaded, loaded, batch_counts, stats = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    u = unloaded.per_class["critical"]
    l = loaded.per_class["critical"]
    goodput_ratio = l["goodput_fps"] / u["goodput_fps"]
    p99_ratio = l["latency_ms_p99"] / u["latency_ms_p99"]
    batch_total = sum(batch_counts.values())
    batch_ok = batch_counts.get("ok", 0)
    batch_rejected = batch_counts.get("rejected", 0)

    result = ExperimentResult(
        exp_id="admission_qos",
        title="Admission control: critical SLO at 2x saturation (10/90 mix)",
        rows=[
            f"backend capacity       {CAPACITY_RPS:8.0f} req/s unbatched "
            f"(offered {SATURATION_MULTIPLE:.0f}x by {BATCH_CLIENTS} batch clients)",
            f"critical goodput       {u['goodput_fps']:8.1f} -> {l['goodput_fps']:8.1f} /s "
            f"({goodput_ratio * 100:5.1f}%,  gate: >= {GOODPUT_GATE * 100:.0f}%)",
            f"critical p99           {u['latency_ms_p99']:8.2f} -> "
            f"{l['latency_ms_p99']:8.2f} ms ({p99_ratio:4.2f}x,  gate: <= {P99_GATE:.1f}x)",
            f"batch outcomes         ok={batch_ok}  rejected={batch_rejected}  "
            f"other={batch_total - batch_ok - batch_rejected}",
            f"admission rejections   {stats['admission']['rejected']}",
        ],
        metrics={
            "critical_goodput_unloaded_fps": u["goodput_fps"],
            "critical_goodput_loaded_fps": l["goodput_fps"],
            "critical_goodput_ratio": goodput_ratio,
            "critical_p99_unloaded_ms": u["latency_ms_p99"],
            "critical_p99_loaded_ms": l["latency_ms_p99"],
            "critical_p99_ratio": p99_ratio,
            "batch_rejected": float(batch_rejected),
        },
        notes=(
            f"{CRITICAL_CLIENTS} critical + {BATCH_CLIENTS} batch clients, "
            f"{REQUESTS_PER_CLIENT} critical requests/client/phase, "
            f"batch quota {BATCH_CLIENT_RATE.rate_per_s:g}/s per client, "
            f"constant {BATCH_SERVICE_S * 1e3:g} ms/batch service"
        ),
    )
    report(result)

    # Gate 1: critical goodput survives the overload.
    assert goodput_ratio >= GOODPUT_GATE, (
        f"critical goodput fell to {goodput_ratio * 100:.1f}% under 2x saturation"
    )
    # Gate 2: critical tail latency survives the overload.
    assert p99_ratio <= P99_GATE, (
        f"critical p99 grew {p99_ratio:.2f}x under 2x saturation"
    )
    # Gate 3: typed-outcome accounting balances — zero silent drops.
    assert u["ok"] == u["requests"]  # unloaded critical never refused
    assert l["ok"] == l["requests"]  # loaded critical never refused either
    known = {"ok", "rejected", "overloaded", "deadline_exceeded", "degraded", "failed"}
    assert set(batch_counts) <= known, f"untyped outcome in {batch_counts}"
    expected_submitted = warm.requests + unloaded.requests + loaded.requests + batch_total
    assert stats["submitted"] == expected_submitted
    resolved = (
        stats["scored"] + stats["rejected"] + stats["rejected_admission"]
        + stats["deadline_exceeded"] + stats["failed"] + stats["degraded"]
    )
    assert resolved == stats["submitted"], (
        f"{stats['submitted']} submitted but only {resolved} resolved"
    )
    # The overload was real: the batch fleet was actually shed.
    assert batch_rejected > 0
