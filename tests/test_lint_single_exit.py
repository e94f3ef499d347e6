"""Lint-style test: every request leaves the serving engine through one exit.

:meth:`repro.serving.engine.ServingEngine._finish` counts a request's
outcome, journals it in the request ledger, resolves its future and
records its root span, in that order.  A second place that resolves a
future or a ledger entry is how an outcome goes uncounted, unjournaled or
untraced again.  This test walks the AST of ``serving/engine.py`` and
flags every call of a ``.resolve`` attribute outside ``_finish``.
"""

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving" / "engine.py"

#: The one scope allowed to call ``.resolve``: (class, method).
EXIT = ("ServingEngine", "_finish")


def _resolve_sites(tree: ast.AST):
    """``(line, scope)`` of every ``<expr>.resolve(...)`` call outside the exit."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "resolve"
                and scope != EXIT
            ):
                sites.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(tree, ())
    return sites


def test_engine_resolves_requests_only_in_finish():
    sites = _resolve_sites(ast.parse(ENGINE.read_text(), filename=str(ENGINE)))
    assert not sites, (
        "serving/engine.py resolves requests outside ServingEngine._finish:\n  "
        + "\n  ".join(f"line {line}: in {scope}" for line, scope in sites)
    )


def test_lint_catches_an_injected_second_site():
    """A resolve call added anywhere else in the engine is flagged."""
    injected = ENGINE.read_text() + (
        "\n\ndef _drain(requests, outcome):\n"
        "    for request in requests:\n"
        "        request.pending.resolve(outcome)\n"
    )
    sites = _resolve_sites(ast.parse(injected))
    assert [scope for _, scope in sites] == ["_drain"]


def test_lint_scopes_by_enclosing_method():
    source = (
        "class ServingEngine:\n"
        "    def _finish(self, request, outcome):\n"
        "        request.pending.resolve(outcome)\n"
        "    def close(self, leftovers, closed):\n"
        "        for request in leftovers:\n"
        "            self._ledger.resolve(request.ledger_id, closed.status)\n"
    )
    sites = _resolve_sites(ast.parse(source))
    assert [scope for _, scope in sites] == ["ServingEngine.close"]
