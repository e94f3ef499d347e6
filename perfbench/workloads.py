"""The benchmark's workloads: geometry, bundle, server flags and traffic.

Each workload names one server configuration and one traffic shape.  The
two are chosen to stress different layers (see ``README.md`` and
``BENCHMARK.json``):

* ``paper_plain`` — the paper's 60x160 float64 geometry with every
  operator feature off, so the JSON frame codec and the model dominate;
  admission, the pool, the journal and telemetry do no work;
* ``small_ops`` — cheap 24x64 float32 frames with QoS, the worker pool,
  the journal, telemetry and the kernel profiler on, so the per-request
  cost of the operator layers dominates and the codec and model matter
  little.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: A verdict older than one 10 Hz control step is useless to the steering
#: controller.
LATENCY_LIMIT_MS = 100.0

#: Distinct frames each run cycles through (every reply is checked against
#: the in-process reference score of its frame).
FRAME_POOL = 64

#: The open phase detunes camera ``i`` to ``rate * DETUNE[i]`` so the two
#: schedules drift against each other instead of arriving in lock step.
DETUNE = (1.013, 0.987)


@dataclass(frozen=True)
class BundleSpec:
    """How a workload's bundle is trained (a reduced budget at its geometry).

    Serving cost depends on geometry and dtype, not on the weights, so a
    short training run is representative.  The verdicts do depend on the
    weights: each budget below was checked to give every seed's frame pool
    both novel and normal frames (see ``README.md``), which smaller ones
    did not.
    """

    image_shape: Tuple[int, int]
    n_train: int
    cnn_epochs: int
    ae_epochs: int
    batch_size: int
    ssim_window: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class Workload:
    """One server configuration plus the traffic it is driven with."""

    name: str
    bundle: BundleSpec
    dtype: str
    #: Open-phase send rate of each camera, frames per second.
    camera_fps: float
    #: ``repro serve`` flags beyond the bundle, address and dtype;
    #: ``{work}`` (the spawn's directory) and ``{metrics_port}`` are filled
    #: in for each spawn.
    serve_flags: Tuple[str, ...]
    #: QoS identity (client id, priority class) of each connection.
    identities: Tuple[Tuple[Optional[str], Optional[str]], ...] = (
        (None, None),
        (None, None),
    )

    @property
    def image_shape(self) -> Tuple[int, int]:
        return self.bundle.image_shape

    @property
    def scrapes(self) -> bool:
        """Whether the server exposes ``/metrics``."""
        return "--metrics-port" in self.serve_flags

    def camera_rates(self) -> Tuple[float, ...]:
        return tuple(self.camera_fps * d for d in DETUNE)

    def serve_args(self, work: Path, port: int, metrics_port: Optional[int]) -> List[str]:
        """``repro serve`` flags for one spawn (bundle added by caller)."""
        args = ["--host", "127.0.0.1", "--port", str(port), "--dtype", self.dtype]
        return args + [
            flag.format(work=work, metrics_port=metrics_port) for flag in self.serve_flags
        ]

    def write_config(self, work: Path) -> None:
        """Files the server flags may point at (fresh for every spawn)."""
        (work / "qos.json").write_text(json.dumps(QOS_POLICY, indent=2))


#: The stock three classes (weights 16/4/1).  Quotas sit well above the
#: offered load, so every admission check runs and none refuses: the rate
#: limit meters every client, ``batch`` carries a deadline so deadline
#: shedding is evaluated, and AIMD stays on with its stock limits.
QOS_POLICY = {
    "classes": {
        "critical": {"weight": 16, "sheddable": False},
        "interactive": {"weight": 4},
        "batch": {"weight": 1, "default_deadline_ms": 1000},
    },
    "rate_limit": {"rate_per_s": 2000, "burst": 200},
}

WORKLOADS: Dict[str, Workload] = {
    "paper_plain": Workload(
        name="paper_plain",
        bundle=BundleSpec(
            image_shape=(60, 160), n_train=400, cnn_epochs=4, ae_epochs=20,
            batch_size=16, ssim_window=11,
        ),
        dtype="float64",
        camera_fps=5.0,
        serve_flags=("--no-telemetry", "--no-profile-kernels"),
    ),
    "small_ops": Workload(
        name="small_ops",
        bundle=BundleSpec(
            image_shape=(24, 64), n_train=300, cnn_epochs=3, ae_epochs=18,
            batch_size=16, ssim_window=9,
        ),
        dtype="float32",
        camera_fps=30.0,
        # Telemetry JSONL and the kernel profiler stay on (serve's default).
        serve_flags=(
            "--workers", "2",
            "--qos-config", "{work}/qos.json",
            "--journal-dir", "{work}/journal",
            "--telemetry", "{work}/telemetry.jsonl",
            "--metrics-port", "{metrics_port}",
        ),
        identities=(("cam-0", "critical"), ("batch-1", "batch")),
    ),
}
