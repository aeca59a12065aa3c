"""RL006: the package layering DAG, enforced on import-time imports.

The repo's layers, lowest first (a module may import strictly below
itself; imports within one group are unconstrained):

====  =====================================================================
rank  group
====  =====================================================================
 0    ``repro._lazy``, ``repro.lint``, ``repro.api.registry`` (pure
      utilities importing nothing from the repo)
 1    ``repro.formats``
 2    ``repro.sim``
 3    ``repro.api.config``  (RuntimeConfig sits directly on sim's knobs)
 4    ``repro.core``
 5    ``repro.hardware``
 6    ``repro.kernels``
 7    ``repro.workloads`` | ``repro.graphs`` | ``repro.solvers``
 8    ``repro.eval.runner``  (the sweep engine)
 9    ``repro.api.specs``
10    ``repro.api.session``
11    ``repro.api``  (the facade ``__init__``)
12    ``repro.eval``  (experiments, figures, CLI, reporting)
13    ``repro``  (the top-level package)
====  =====================================================================

Only *import-time* imports are constrained — statements executed when the
module loads (module body and class bodies, including ``try``/``if``
blocks).  Imports deferred into function bodies and imports guarded by
``if TYPE_CHECKING:`` are the repo's sanctioned cycle-breaking idioms and
are exempt; an upward module-level import is exactly the thing that turns
into an ``ImportError`` cycle when someone reorders ``__init__`` exports.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.lint.core import Rule, SourceFile, Violation

#: (module-or-package prefix, rank); the longest matching prefix wins.
LAYER_RANKS: Tuple[Tuple[str, int], ...] = (
    ("repro._lazy", 0),
    ("repro.lint", 0),
    ("repro.api.registry", 0),
    ("repro.formats", 1),
    ("repro.sim", 2),
    ("repro.api.config", 3),
    ("repro.core", 4),
    ("repro.hardware", 5),
    ("repro.kernels", 6),
    ("repro.workloads", 7),
    ("repro.graphs", 7),
    ("repro.solvers", 7),
    ("repro.eval.runner", 8),
    ("repro.api.specs", 9),
    ("repro.store", 9),
    ("repro.api.session", 10),
    ("repro.api", 11),
    ("repro.eval", 12),
    ("repro", 13),
)


def layer_of(module: str) -> Optional[Tuple[str, int]]:
    """The (group, rank) of ``module``: longest component-wise prefix."""
    best: Optional[Tuple[str, int]] = None
    for prefix, rank in LAYER_RANKS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, rank)
    return best


def _is_type_checking_test(test: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_time_imports(
    body: List[ast.stmt],
) -> Iterator[ast.stmt]:
    """Import statements executed when the module loads.

    Recurses into ``if``/``try``/``with`` blocks and class bodies — those
    run at import time — but not into function bodies (deferred) or
    ``if TYPE_CHECKING:`` guards (never run).
    """
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            if not _is_type_checking_test(stmt.test):
                yield from _import_time_imports(stmt.body)
            yield from _import_time_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _import_time_imports(stmt.body)
            for handler in stmt.handlers:
                yield from _import_time_imports(handler.body)
            yield from _import_time_imports(stmt.orelse)
            yield from _import_time_imports(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _import_time_imports(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            yield from _import_time_imports(stmt.body)


class LayeringRule(Rule):
    id = "RL006"
    title = "module-level imports follow the layering DAG (no upward imports)"
    rationale = (
        "The facade refactor (PR 4) broke import cycles with lazy modules "
        "and deferred imports; an upward import-time import reintroduces "
        "the ImportError cycles and makes layers untestable in isolation."
    )

    def applies_to(self, source: SourceFile) -> bool:
        # Only files inside the repro package participate in the DAG.
        return source.module == "repro" or source.module.startswith("repro.")

    def _targets(self, source: SourceFile, stmt: ast.stmt) -> Iterator[str]:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level == 0:
                if stmt.module is not None:
                    yield stmt.module
                return
            # Resolve a relative import against this file's package.
            package = source.module.split(".")
            if source.path.endswith("__init__.py"):
                base = package[: len(package) - (stmt.level - 1)]
            else:
                base = package[: len(package) - stmt.level]
            prefix = ".".join(base)
            yield f"{prefix}.{stmt.module}" if stmt.module else prefix

    def check(self, source: SourceFile) -> Iterable[Violation]:
        importer = layer_of(source.module)
        if importer is None:
            return
        importer_group, importer_rank = importer
        for stmt in _import_time_imports(source.tree.body):
            for target in self._targets(source, stmt):
                if target != "repro" and not target.startswith("repro."):
                    continue
                resolved = layer_of(target)
                if resolved is None:
                    continue
                target_group, target_rank = resolved
                if target_group == importer_group:
                    continue
                if target_rank >= importer_rank:
                    yield source.violation(
                        stmt,
                        self,
                        f"{source.module} (layer {importer_rank}, "
                        f"{importer_group}) imports {target} (layer "
                        f"{target_rank}, {target_group}) at import time — "
                        "layers may only import strictly downward; defer "
                        "the import into the using function or restructure",
                    )


RULES = [LayeringRule()]
