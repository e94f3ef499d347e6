"""Bundle cache: each workload's bundle is trained once per source digest.

The cache key hashes the ``src/repro`` sources together with the bundle
definition, so a change to the program or to the workload retrains, and
nothing else does.  Training runs in a child process, outside every timed
phase, and the bundle is moved into place only once it is complete.

Run as a script it trains one bundle::

    PYTHONPATH=src python3 perfbench/bundles.py OUT_DIR SPEC_JSON
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

from workloads import BundleSpec

#: Seed of every bundle's training data, weights and shuffling.
SEED = 0


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(digest: str, spec: BundleSpec) -> str:
    payload = json.dumps({"src": digest, "bundle": spec.as_dict()}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def ensure_bundle(root: Path, cache: Path, spec: BundleSpec, env: Dict[str, str]) -> Path:
    """Path of the cached bundle for ``spec``, training it if absent."""
    key = cache_key(source_digest(root / "src" / "repro"), spec)
    target = cache / f"bundle-{key}"
    if (target / "manifest.json").exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    staging = cache / f"bundle-{key}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(staging),
         json.dumps(spec.as_dict())],
        env=env, cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    os.replace(staging, target)
    return target


def _train(out: Path, spec: Dict[str, object]) -> None:
    from repro.config import PAPER
    from repro.experiments.harness import Workbench
    from repro.novelty import SaliencyNoveltyPipeline
    from repro.serving import save_bundle

    scale = PAPER.with_overrides(
        image_shape=tuple(spec["image_shape"]),
        n_train=int(spec["n_train"]),
        n_test=8,
        n_novel=8,
        cnn_epochs=int(spec["cnn_epochs"]),
        ae_epochs=int(spec["ae_epochs"]),
        batch_size=int(spec["batch_size"]),
        ssim_window=int(spec["ssim_window"]),
    )
    workbench = Workbench(scale, seed=SEED)
    pipeline = SaliencyNoveltyPipeline(
        workbench.steering_model("dsu"), scale.image_shape, loss="ssim",
        config=workbench.autoencoder_config(), rng=SEED,
    )
    pipeline.fit(workbench.batch("dsu", "train").frames)
    save_bundle(pipeline, out)


if __name__ == "__main__":
    _train(Path(sys.argv[1]), json.loads(sys.argv[2]))
