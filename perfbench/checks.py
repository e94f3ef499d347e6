"""Correctness gate, outcome accounting and the percentile rules.

Gate: every ``ok`` reply is compared with in-process single-frame scoring
of the same frame from the same bundle.  Scores must agree within a
tolerance set by the dtype; ``is_novel`` must agree wherever the
reference margin is wider than that tolerance (closer calls may flip on
batch-order rounding).

Accounting: each phase's replies are reconciled with the change in the
server's own ``submitted`` and ``scored`` counters, so a request the
server admitted but never answered (or answered twice) fails the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Largest score difference accepted between a served verdict and the
#: single-frame reference, per inference dtype.
TOLERANCE = {"float64": 1e-9, "float32": 1e-4}

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Reference:
    score: float
    is_novel: bool
    margin: float


def reference_verdicts(bundle_dir, dtype: str, frames) -> List[Reference]:
    """Score each frame on its own, in process, from the bundle on disk."""
    from repro.nn.backend.policy import as_tensor
    from repro.serving import PipelineScorer, load_bundle

    bundle = load_bundle(bundle_dir)
    bundle.pipeline.set_inference_dtype(dtype)
    scorer = PipelineScorer(bundle.pipeline)
    refs = []
    for frame in frames:
        verdicts = scorer.score_batch(as_tensor(frame[None], scorer.dtype))
        refs.append(Reference(
            float(verdicts.scores[0]),
            bool(verdicts.is_novel[0]),
            float(verdicts.margins[0]),
        ))
    return refs


def gate(records: Iterable, refs: Sequence[Reference], tolerance: float) -> List[str]:
    """Mismatches between ``ok`` replies and their references (empty = pass)."""
    problems = []
    for record in records:
        if record.status != "ok":
            continue
        ref = refs[record.frame]
        if not abs(record.score - ref.score) <= tolerance:
            problems.append(
                f"frame {record.frame}: served score {record.score!r} vs "
                f"reference {ref.score!r}"
            )
        elif abs(ref.margin) > tolerance and record.is_novel != ref.is_novel:
            problems.append(
                f"frame {record.frame}: served is_novel={record.is_novel} vs "
                f"reference {ref.is_novel} (margin {ref.margin:.3g})"
            )
    return problems


def account(records: Sequence, before: Dict, after: Dict) -> List[str]:
    """Reconcile one phase's replies with the server's counter deltas."""
    answered = [r for r in records if r.status not in ("unsent", "error")
                and not r.status.startswith("transport")]
    expected = {
        "submitted": len(answered),
        "scored": sum(r.status == "ok" for r in records),
    }
    problems = []
    for key, want in expected.items():
        got = int(after.get(key, 0)) - int(before.get(key, 0))
        if got != want:
            problems.append(
                f"server counted {got} {key} requests, the load process {want}"
            )
    return problems


def outcome_counts(records: Sequence) -> Tuple[int, int]:
    """``(attempted, failed)``: a failure is any non-``ok`` outcome, any
    transport error, or a due frame that was never sent."""
    attempted = len(records)
    failed = sum(r.status != "ok" for r in records)
    return attempted, failed


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1] (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0 or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail_percentile(values: Sequence[float], pct: float) -> Tuple[Optional[float], int]:
    """``(value, beyond)`` for percentile ``pct``; ``value`` is ``None``
    when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    beyond = int((n * (100.0 - pct)) // 100.0)
    if beyond < MIN_BEYOND:
        return None, beyond
    return quantile(values, pct / 100.0), beyond
