"""Lint-style test: the batchers never hold a batch open on a timer.

A free dispatch thread takes what is queued, up to ``max_batch_size``, and
waits only while there is nothing to take; frames that arrive while a
batch is scored form the next one.  A timed fill window
(``cond.wait(remaining)`` inside ``next_batch``) is how a frame comes to
wait for others that may never arrive.  This test walks the AST of both
batcher modules and flags every ``.wait(...)`` call that passes an
argument: an untimed ``wait()`` is the only wait allowed.
"""

import ast
from pathlib import Path

SERVING = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving"
BATCHERS = (SERVING / "batcher.py", SERVING / "admission.py")


def _timed_waits(tree: ast.AST):
    """Line of every ``<expr>.wait(<arg>...)`` call."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wait"
        and (node.args or node.keywords)
    ]


def test_batchers_hold_no_fill_window():
    sites = [
        f"{path.name}:{line}"
        for path in BATCHERS
        for line in _timed_waits(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not sites, "timed wait in a batcher (a fill window):\n  " + "\n  ".join(sites)


def test_lint_catches_an_injected_fill_window():
    source = (
        "def next_batch(self):\n"
        "    with self._cond:\n"
        "        while not self._queue:\n"
        "            self._cond.wait()\n"
        "        batch = [self._queue.popleft()]\n"
        "        while len(batch) < self.max_batch_size and not self._queue:\n"
        "            self._cond.wait(timeout=0.002)\n"
        "        return batch\n"
    )
    assert _timed_waits(ast.parse(source)) == [7]
