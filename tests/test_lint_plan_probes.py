"""Lint-style test: no duck-typed probes of the scoring surfaces.

Every detector declares its own compiled :class:`~repro.pipeline.ScoringPlan`,
every saliency method consumes the plan's cached forward, and every
saliency pipeline offers the fused steering path.  Every serving backend
is a :class:`~repro.serving.results.Scorer`, whose members (and the
reload inputs its ``reload`` takes) are declared, not optional.  A
``getattr`` or ``hasattr`` naming one of these attributes is how a
fallback path — a second way to score a frame — creeps back in.  This
test walks the AST of every module under ``src/repro/`` for the plan
surface, and of the serving, deploy and reliability packages for the
scorer surface, and flags any such probe.
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


#: Members of the declared Scorer contract and of the reload inputs.
SCORER_SURFACE = frozenset(
    {
        "replicas",
        "image_shape",
        "dtype",
        "model_version",
        "score_batch",
        "reload",
        "close",
        "pipeline",
        "manifest",
        "path",
        "is_fitted",
        "_workers",
    }
)

#: Packages that hold, wrap or route scorers.
SCORER_PACKAGES = ("serving", "deploy", "reliability")


def _linted_files():
    files = sorted(SRC.rglob("*.py"))
    assert files, "source tree not found — did the layout move?"
    return files


def _scorer_files():
    files = [
        path
        for package in SCORER_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
    ]
    assert files, "scorer packages not found — did the layout move?"
    return files


def _probes(tree: ast.AST, surface=PLAN_SURFACE):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in surface
        ):
            yield node


def _offenders(path, surface):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"line {call.lineno}: {call.func.id}(..., {call.args[1].value!r})"
        for call in _probes(tree, surface)
    ]


@pytest.mark.parametrize(
    "path", _linted_files(), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_probes_of_the_plan_surface(path):
    offenders = _offenders(path, PLAN_SURFACE)
    assert not offenders, (
        f"{path.relative_to(SRC.parent.parent)} probes for the plan surface "
        f"instead of calling it:\n  " + "\n  ".join(offenders)
    )


@pytest.mark.parametrize(
    "path", _scorer_files(), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_probes_of_the_scorer_surface(path):
    offenders = _offenders(path, SCORER_SURFACE)
    assert not offenders, (
        f"{path.relative_to(SRC.parent.parent)} probes for the Scorer "
        f"surface instead of reading it:\n  " + "\n  ".join(offenders)
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
    assert len(list(_probes(ast.parse(source)))) == 1


@pytest.mark.parametrize(
    "source",
    [
        'replicas = int(getattr(scorer, "replicas", 1))',
        'close = getattr(self.scorer, "close", None)',
        'bundle_dir = Path(getattr(target, "path", target))',
        'workers = getattr(self.scorer, "_workers", None)',
    ],
)
def test_lint_catches_a_scorer_probe(source):
    """The scorer lint fires on a probing call, and the plan lint does not."""
    tree = ast.parse(source)
    assert len(list(_probes(tree, SCORER_SURFACE))) == 1
    assert not list(_probes(tree))
