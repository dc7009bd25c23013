"""Engine-mode hygiene: process-global engine state is always restored.

``set_conv_engine`` is process-global by design, and three environment
variables (``REPRO_MONITOR_SHARED``, ``REPRO_MONITOR_ADAPTIVE``,
``REPRO_SERVE_WORKERS``) reroute whole engine families at run time —
that is how ``scripts/check.sh`` re-runs the tier-1 suites under the
shared-context and adaptive early-exit engines.  The conv engine has
no environment toggle: its mode is set in code only.
``REPRO_MONITOR_ADAPTIVE`` is sanctioned for the same reason the shared
toggle is: the certification rerun needs a process-default switch that
flips *every* joint monitoring call without editing each
``MonitorConfig``, and the read lives at the single documented site in
``core/monitor.py`` (``adaptive_default``), consulted per call so tests
can monkeypatch it.
``REPRO_SERVE_WORKERS`` is sanctioned as the serving layer's
deployment-time sizing toggle: the broker process is launched by an
operator, not constructed in code, so the worker count needs a
process-default the way the monitor toggles do — the read lives at the
single documented site in ``serve/broker.py``
(``serve_workers_default``), consulted only when
``ServeConfig.workers`` is unset so explicit configuration always
wins.  The flip side: a test or bench that flips a mode and fails to
restore it silently changes what every *later* test measures, and an
``os.environ`` read scattered outside the sanctioned sites turns the
environment into an undocumented knob surface.

Three rules:

* ``ENG-ENV-READ`` — inside ``src/repro``, ``os.environ``/
  ``os.getenv`` may only be consulted at the sanctioned sites (the
  shared-context and adaptive early-exit toggles in
  ``core/monitor.py``, the trained-system cache root in
  ``eval/harness.py``, the strict-seed switch in ``utils/rng.py``, and
  the serve worker-count default in ``serve/broker.py``).
* ``ENG-ENV-WRITE`` — nobody mutates ``os.environ`` directly; tests
  use ``monkeypatch.setenv`` (auto-restoring) and subprocesses get an
  explicit ``env=`` mapping.
* ``ENG-SET-NO-RESTORE`` — a direct ``set_conv_engine(...)`` call must
  be paired with a restore: the ``conv_engine(...)`` context manager,
  a save/restore via ``get_conv_engine``/``reset_conv_engine`` in the
  same function, or the autouse ``_conv_engine_isolation`` conftest
  fixture that guards the test tree.  (The sanctioned implementation
  sites — ``nn/functional.py`` itself and the ``EngineConfig``
  appliers in ``core/engine.py``/``core/pipeline.py`` — are exempt.)
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.base import (
    BaseChecker,
    CheckContext,
    Rule,
    ScopedVisitor,
    dotted_name,
)

#: The sanctioned ``os.environ`` readers inside ``src/repro``.
SANCTIONED_ENV_READERS = frozenset({
    "src/repro/core/monitor.py",    # REPRO_MONITOR_SHARED +
                                    # REPRO_MONITOR_ADAPTIVE toggles
    "src/repro/eval/harness.py",    # REPRO_CACHE weight-cache root
    "src/repro/utils/rng.py",       # REPRO_REQUIRE_SEED strict mode
    "src/repro/serve/broker.py",    # REPRO_SERVE_WORKERS sizing
                                    # default (serve_workers_default)
})

#: Files allowed to call ``set_conv_engine`` without a local restore:
#: the engine's own implementation and the documented knob surface.
SANCTIONED_SETTERS = frozenset({
    "src/repro/nn/functional.py",
    "src/repro/core/engine.py",
    "src/repro/core/pipeline.py",
})

#: Names whose presence in the same function marks a save/restore
#: idiom around a direct ``set_conv_engine`` call.
RESTORE_MARKERS = frozenset({
    "reset_conv_engine", "get_conv_engine", "conv_engine"})

#: Autouse fixture that save/restores the conv engine around every
#: test below its conftest (see ``tests/conftest.py``).
GUARD_FIXTURE = "_conv_engine_isolation"

_ENV_MUTATORS = frozenset({"update", "setdefault", "pop", "clear",
                           "popitem"})

#: Per-root cache of directories guarded by the conftest fixture.
_GUARD_CACHE: dict[Path, frozenset[str]] = {}


def guarded_dirs(root: Path) -> frozenset[str]:
    """Repo-relative directories whose conftest defines the guard."""
    cached = _GUARD_CACHE.get(root)
    if cached is None:
        found = set()
        for conftest in root.glob("**/conftest.py"):
            if any(part in {".git", "__pycache__", ".smoke"}
                   for part in conftest.parts):
                continue
            try:
                text = conftest.read_text()
            except OSError:
                continue
            if f"def {GUARD_FIXTURE}" in text:
                found.add(conftest.parent.relative_to(root).as_posix())
        cached = frozenset(found)
        _GUARD_CACHE[root] = cached
    return cached


class EngineModeChecker(BaseChecker):
    name = "engine-mode-hygiene"
    rules = (
        Rule("ENG-ENV-READ",
             "os.environ consulted outside the sanctioned sites in "
             "src/repro",
             contract="engine-mode certification reruns "
                      "(REPRO_MONITOR_SHARED / REPRO_MONITOR_ADAPTIVE)"),
        Rule("ENG-ENV-WRITE",
             "direct os.environ mutation (leaks process-wide)",
             contract="engine-mode certification reruns "
                      "(REPRO_MONITOR_SHARED / REPRO_MONITOR_ADAPTIVE)"),
        Rule("ENG-SET-NO-RESTORE",
             "set_conv_engine without a visible restore",
             contract="conv-engine accuracy contract (repro.nn.functional)"),
    )

    def check(self, ctx: CheckContext):
        visitor = _EngineVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings

    @staticmethod
    def is_guarded(ctx: CheckContext) -> bool:
        """Whether the file sits under a conftest guard fixture."""
        dirs = guarded_dirs(ctx.root)
        parts = ctx.rel_path.split("/")[:-1]
        return any("/".join(parts[:i]) in dirs
                   for i in range(len(parts), -1, -1))


class _EngineVisitor(ScopedVisitor):
    def __init__(self, checker: EngineModeChecker, ctx: CheckContext):
        super().__init__()
        self.checker = checker
        self.ctx = ctx
        self.findings = []
        self._fn_stack: list[ast.AST] = []

    def report(self, node, rule_id, message, hint=""):
        self.findings.append(
            self.checker.finding(self.ctx, node, rule_id, message,
                                 hint=hint))

    # ------------------------------------------------------------------
    def _visit_fn(self, node):
        self._fn_stack.append(node)
        try:
            self._visit_scope(node)
        finally:
            self._fn_stack.pop()

    visit_FunctionDef = _visit_fn
    visit_AsyncFunctionDef = _visit_fn

    # -- environment reads --------------------------------------------
    def visit_Attribute(self, node: ast.Attribute):
        name = dotted_name(node, self.ctx.imports)
        if name == "os.environ" \
                and isinstance(node.ctx, ast.Load) \
                and self.ctx.rel_path.startswith("src/repro/") \
                and self.ctx.rel_path \
                not in SANCTIONED_ENV_READERS:
            self.report(
                node, "ENG-ENV-READ",
                "os.environ read outside the sanctioned sites",
                hint="route run-time toggles through the documented "
                     "knob surfaces (EngineConfig, MonitorConfig) or "
                     "add the site to SANCTIONED_ENV_READERS with a "
                     "documented reason")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        base = dotted_name(node.value, self.ctx.imports)
        if base == "os.environ" \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.report(
                node, "ENG-ENV-WRITE",
                "direct os.environ mutation",
                hint="use pytest's monkeypatch.setenv (auto-restores) "
                     "or pass an explicit env= mapping to the "
                     "subprocess")
        self.generic_visit(node)

    # -- env-mutator calls, getenv, set_conv_engine -------------------
    def visit_Call(self, node: ast.Call):
        name = dotted_name(node.func, self.ctx.imports)
        if name is not None:
            if name == "os.getenv" \
                    and self.ctx.rel_path.startswith("src/repro/") \
                    and self.ctx.rel_path \
                    not in SANCTIONED_ENV_READERS:
                self.report(
                    node, "ENG-ENV-READ",
                    "os.getenv outside the sanctioned sites",
                    hint="route run-time toggles through the "
                         "documented knob surfaces (EngineConfig, "
                         "MonitorConfig)")
            elif name in ("os.putenv", "os.unsetenv"):
                self.report(
                    node, "ENG-ENV-WRITE",
                    f"{name} mutates the process environment",
                    hint="use monkeypatch.setenv or subprocess "
                         "env= mappings")
            elif name.startswith("os.environ.") \
                    and name.rsplit(".", 1)[1] in _ENV_MUTATORS:
                self.report(
                    node, "ENG-ENV-WRITE",
                    f"{name} mutates the process environment",
                    hint="use monkeypatch.setenv or subprocess "
                         "env= mappings")
        if self._is_set_conv_engine(node):
            self._check_set_conv_engine(node)
        self.generic_visit(node)

    def _is_set_conv_engine(self, node: ast.Call) -> bool:
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "set_conv_engine":
            return True
        return isinstance(fn, ast.Attribute) \
            and fn.attr == "set_conv_engine"

    def _check_set_conv_engine(self, node: ast.Call) -> None:
        if self.ctx.rel_path in SANCTIONED_SETTERS:
            return
        if self.checker.is_guarded(self.ctx):
            return
        for fn in reversed(self._fn_stack):
            if self._has_restore_marker(fn, node):
                return
        self.report(
            node, "ENG-SET-NO-RESTORE",
            "set_conv_engine flips process-global engine state "
            "without a visible restore",
            hint="prefer `with conv_engine(...)`; or save with "
                 "get_conv_engine() and restore in a finally; or "
                 "run under the autouse _conv_engine_isolation "
                 "conftest fixture")

    @staticmethod
    def _has_restore_marker(fn: ast.AST, call: ast.Call) -> bool:
        for sub in ast.walk(fn):
            if sub is call.func:
                continue
            if isinstance(sub, ast.Name) \
                    and sub.id in RESTORE_MARKERS:
                return True
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in RESTORE_MARKERS:
                return True
        return False
