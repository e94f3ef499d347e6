"""Lint-style test: no duck-typed probes of the scoring-plan surface.

Every detector declares its own compiled :class:`~repro.pipeline.ScoringPlan`,
every saliency method consumes the plan's cached forward, and every
saliency pipeline offers the fused steering path.  A ``getattr`` or
``hasattr`` naming one of these attributes is how a plan-less fallback
path — a second way to score a frame — creeps back in.  This test walks
the AST of every module under ``src/repro/`` and flags any such probe.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Attributes every in-tree implementer has; probing for them is dead code.
PLAN_SURFACE = frozenset(
    {
        "plan",
        "run_plan",
        "saliency_from_forward",
        "score_with_steering",
        "angles_from_output",
    }
)


def _linted_files():
    files = sorted(SRC.rglob("*.py"))
    assert files, "source tree not found — did the layout move?"
    return files


def _plan_probes(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in PLAN_SURFACE
        ):
            yield node


@pytest.mark.parametrize(
    "path", _linted_files(), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_probes_of_the_plan_surface(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        f"line {call.lineno}: {call.func.id}(..., {call.args[1].value!r})"
        for call in _plan_probes(tree)
    ]
    assert not offenders, (
        f"{path.relative_to(SRC.parent.parent)} probes for the plan surface "
        f"instead of calling it:\n  " + "\n  ".join(offenders)
    )


@pytest.mark.parametrize(
    "source",
    [
        'fused = getattr(detector, "score_with_steering", None)',
        'if hasattr(pipeline, "run_plan"): pass',
    ],
)
def test_lint_catches_a_probe(source):
    """The lint itself fires on a probing call."""
    assert len(list(_plan_probes(ast.parse(source)))) == 1
