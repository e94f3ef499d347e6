"""The documentation is executable — and the CLI it documents exists.

Two contracts over ``README.md`` and ``docs/*.md``:

1. Every fenced ```python block runs, top to bottom, in a namespace
   pre-seeded with the session objects the surrounding prose assumes
   (``pipeline``, ``frames``, ``monitor``, ``engine``...).  Blocks within
   one file share a namespace in document order, so a tutorial can build
   on its earlier sections.  A block that raises fails the test with the
   file and line of the offending fence — stale docs break CI, not users.

2. Every documented CLI invocation (``repro <sub> --flag`` in console/
   bash fences and inline code spans) is checked against the real
   ``argparse`` tree from ``repro.cli.build_parser()``: the subcommand
   must exist and every ``--flag`` must be accepted by that subcommand.
   Bare ``--flag`` spans (e.g. option tables) must exist *somewhere* in
   the CLI.

The fixture universe is deliberately tiny (small frames, few epochs) so
the whole docs suite stays in the tens of seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import (
    PilotNet,
    PilotNetConfig,
    SaliencyNoveltyPipeline,
    SyntheticUdacity,
    train_pilotnet,
)
from repro.cli import build_parser
from repro.deploy import CanarySplitScorer, ModelRegistry, ShadowRunner
from repro.novelty import AutoencoderConfig, CusumDetector, StreamMonitor
from repro.reliability import BreakerConfig
from repro.serving import (
    EngineConfig,
    PipelineScorer,
    ServingEngine,
    save_bundle,
)

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(p.relative_to(REPO) for p in (REPO / "docs").glob("*.md"))
DOC_FILES.append(Path("README.md"))

SHAPE = (24, 64)


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

_FENCE = re.compile(r"^(\s*)```([A-Za-z0-9_-]*)\s*$")


def fenced_blocks(path: Path):
    """Yield ``(language, first_code_lineno, body)`` for every fence."""
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        match = _FENCE.match(lines[i])
        if match is None:
            i += 1
            continue
        language, start = match.group(2), i + 1
        j = start
        while j < len(lines) and lines[j].strip() != "```":
            j += 1
        body = textwrap.dedent("\n".join(lines[start:j]))
        yield language, start + 1, body
        i = j + 1


def python_blocks(path: Path):
    return [(lineno, body) for lang, lineno, body in fenced_blocks(path)
            if lang == "python"]


# ---------------------------------------------------------------------------
# the shared universe the prose assumes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def universe(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("docs_examples")
    (workdir / "out").mkdir()

    dsu = SyntheticUdacity(SHAPE)
    train = dsu.render_batch(48, rng=0)
    model = PilotNet(PilotNetConfig.for_image(SHAPE), rng=0)
    train_pilotnet(model, train.frames, train.angles, epochs=2, rng=0)

    pipeline = SaliencyNoveltyPipeline(
        model, SHAPE, loss="ssim",
        config=AutoencoderConfig(epochs=3, batch_size=16), rng=0,
    ).fit(train.frames)

    frames = train.frames[:8]
    monitor = StreamMonitor(pipeline, window=5, min_consecutive=3)
    cusum = CusumDetector(allowance=0.5, decision_threshold=5.0)
    cusum.fit(pipeline.score(train.frames[:16]))
    shadow = ShadowRunner(PipelineScorer(pipeline))
    split = CanarySplitScorer(
        PipelineScorer(pipeline), PipelineScorer(pipeline), fraction=0.25
    )

    # on-disk artifacts the docs reference by relative path -----------------
    frames_dir = workdir / "frames"
    frames_dir.mkdir()
    rows = ["filename,steering_angle"]
    for i in range(4):
        np.save(frames_dir / f"f{i}.npy", train.frames[i])
        rows.append(f"f{i}.npy,{float(train.angles[i])}")
    (workdir / "driving_log.csv").write_text("\n".join(rows) + "\n")

    # a registry with a serving v0001 and a registered candidate v0002;
    # the two bundles must differ (identical manifests are rejected)
    bundle_a = workdir / "bundle_a"
    save_bundle(pipeline, bundle_a)
    other = SaliencyNoveltyPipeline(
        model, SHAPE, loss="mse",
        config=AutoencoderConfig(epochs=2, batch_size=16), rng=1,
    ).fit(train.frames)
    bundle_b = workdir / "bundle_b"
    save_bundle(other, bundle_b)
    registry = ModelRegistry(workdir / "out" / "registry")
    registry.register(bundle_a)
    registry.promote("v0001")
    registry.register(bundle_b)

    yield {
        "workdir": workdir,
        "dsu": dsu,
        "model": model,
        "pipeline": pipeline,
        "frames": frames,
        "frame": frames[0],
        "monitor": monitor,
        "stream_monitor": monitor,
        "cusum": cusum,
        "shadow": shadow,
        "split": split,
    }
    shadow.close()


@pytest.fixture()
def doc_namespace(universe):
    """A fresh per-file namespace; engines are closed at teardown."""
    config = EngineConfig(
        max_batch_size=4, queue_capacity=64,
        breaker=BreakerConfig(),
    )
    scorer = PipelineScorer(universe["pipeline"])
    engine = ServingEngine(scorer, config)
    namespace = dict(universe)
    namespace.pop("workdir")
    namespace.update({"scorer": scorer, "config": config, "engine": engine})
    created = [engine]
    yield namespace, created
    for eng in {id(e): e for e in created}.values():
        with contextlib.suppress(Exception):
            eng.close()


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p).replace("/", "_") for p in DOC_FILES]
)
def test_documented_python_runs(doc, universe, doc_namespace, monkeypatch):
    monkeypatch.chdir(universe["workdir"])
    namespace, created = doc_namespace
    blocks = python_blocks(REPO / doc)
    if not blocks:
        pytest.skip(f"{doc} has no python blocks")
    for lineno, body in blocks:
        before = {v for v in namespace.values() if isinstance(v, ServingEngine)}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exec(compile(body, f"{doc}:{lineno}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{doc} block at line {lineno} raised "
                f"{type(exc).__name__}: {exc}"
            )
        finally:
            created.extend(
                v for v in namespace.values()
                if isinstance(v, ServingEngine) and v not in before
            )


# ---------------------------------------------------------------------------
# the documented CLI surface
# ---------------------------------------------------------------------------


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _option_strings(parser):
    return set(parser._option_string_actions)


_INLINE_CODE = re.compile(r"`([^`]+)`")
_FLAG = re.compile(r"^--[A-Za-z][A-Za-z0-9-]*")


def _command_lines(path: Path):
    """Every documented shell line that invokes ``repro``."""
    lines = (REPO / path).read_text().splitlines()
    candidates = []
    for lang, lineno, body in fenced_blocks(REPO / path):
        if lang not in ("console", "bash", "sh"):
            continue
        for offset, line in enumerate(body.splitlines()):
            line = line.strip()
            if lang == "console":
                if not line.startswith("$ "):
                    continue  # output, not a command
                line = line[2:]
            candidates.append((lineno + offset, line))
    # blank out every fenced region so the triple-backtick fences don't
    # read as giant inline spans, then scan the prose for `...` spans
    prose, in_fence = [], False
    for line in lines:
        if _FENCE.match(line):
            in_fence = not in_fence
            prose.append("")
        else:
            prose.append("" if in_fence else line)
    text = "\n".join(prose)
    for match in _INLINE_CODE.finditer(text):
        lineno = text.count("\n", 0, match.start()) + 1
        candidates.append((lineno, match.group(1).replace("\n", " ")))
    return candidates


def _parse_invocation(line):
    """Return ``(subcommand_token, following_tokens)`` or ``None``."""
    tokens = line.split(" # ")[0].split()
    for i, token in enumerate(tokens):
        if token == "repro" and i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if re.fullmatch(r"[a-z][a-z0-9|-]*", nxt):
                return nxt, tokens[i + 2:]
            return None
    return None


def test_documented_cli_surface_exists():
    parser = build_parser()
    subs = _subcommands(parser)
    assert subs, "CLI has no subcommands?"
    deploy_subs = _subcommands(subs["deploy"]) if "deploy" in subs else {}
    all_options = set()
    for sub in subs.values():
        all_options |= _option_strings(sub)
    for sub in deploy_subs.values():
        all_options |= _option_strings(sub)

    problems = []
    checked_invocations = 0
    for doc in DOC_FILES:
        for lineno, line in _command_lines(doc):
            where = f"{doc}:{lineno}"
            invocation = _parse_invocation(line)
            if invocation is not None:
                sub_token, rest = invocation
                for name in sub_token.split("|"):
                    if name not in subs:
                        problems.append(f"{where}: unknown subcommand {name!r}")
                        break
                else:
                    checked_invocations += 1
                    if "|" in sub_token:
                        continue  # an enumeration, not one invocation
                    allowed = _option_strings(subs[sub_token])
                    if sub_token == "deploy" and rest:
                        nested = rest[0]
                        if re.fullmatch(r"[a-z|-]+", nested):
                            for name in nested.split("|"):
                                if name not in deploy_subs:
                                    problems.append(
                                        f"{where}: unknown deploy "
                                        f"subcommand {name!r}"
                                    )
                                else:
                                    allowed |= _option_strings(
                                        deploy_subs[name]
                                    )
                    for token in rest:
                        flag = _FLAG.match(token)
                        if flag and flag.group(0).split("=")[0] not in allowed:
                            problems.append(
                                f"{where}: {sub_token!r} does not accept "
                                f"{flag.group(0)!r}"
                            )
            elif line.startswith("--"):
                # a bare flag span (option tables): must exist somewhere
                flag = _FLAG.match(line)
                if flag and flag.group(0) not in all_options:
                    problems.append(f"{where}: unknown flag {flag.group(0)!r}")

    assert not problems, "\n".join(problems)
    assert checked_invocations >= 20  # the docs really do cover the CLI
