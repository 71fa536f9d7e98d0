#!/usr/bin/env python
"""Repo invariant checks, enforced in CI next to the style linter.

Three structural rules the linters cannot express, checked with nothing
but the stdlib ``ast`` module:

1. **No new module-level mutable globals.**  PR 1 killed the global
   singleton session; the registries (``OPS``, ``_REGISTRY`` options,
   ``DEFAULT_SOURCES``, ``DEFAULT_ANALYZERS``, ``SCHEMA_RULES``) are the
   sanctioned pattern for module-level mutable state.  Everything
   mutable at module scope that exists today is pinned in
   ``MUTABLE_GLOBAL_ALLOWLIST``; adding a new one fails this check so
   the pattern is adopted deliberately, not by drift.

2. **No real-pandas shortcuts.**  The repro stack *simulates* the
   pandas surface; ``src/repro`` must never import the real thing (nor
   call ``pandas.read_csv``) outside the designated seams -- ``io/``
   (the source layer) and ``core/compat.py`` (the deprecation shims).
   Today there are zero such imports; this keeps it that way.

3. **Every ``register_op`` declares its column contract.**  The
   optimizer's projection and predicate passes trust ``mod_attrs`` /
   ``used_attrs``; a registration that omits either silently inherits a
   default that over- or under-claims.  Each call must pass both
   keywords explicitly.

Usage::

    python tools/check_invariants.py          # repo root, exit 1 on fail
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

# ---------------------------------------------------------------------------
# check 1: module-level mutable globals


#: constructor calls that produce mutable containers.
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict"}

#: value node types that are mutable container literals.
_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)

#: every module-level mutable global that exists today, pinned.
#: (path relative to src/repro, name).  Registry singletons
#: (``*Registry()`` instantiations) are allowed structurally and do not
#: need pinning.  To add a new entry, prefer one of the registries; if
#: the table really is a new frozen lookup table, pin it here in the
#: same commit that introduces it.
MUTABLE_GLOBAL_ALLOWLIST = {
    ("analysis/dataflow/frames.py", "PANDAS_MODULES"),
    ("analysis/dataflow/frames.py", "FRAME_PRESERVING"),
    ("analysis/dataflow/frames.py", "FRAME_TRANSFORMING"),
    ("analysis/dataflow/frames.py", "FRAME_TO_SERIES"),
    ("analysis/dataflow/frames.py", "SERIES_METHODS"),
    ("analysis/dataflow/frames.py", "SERIES_AGGS"),
    ("analysis/dataflow/frames.py", "GROUPBY_AGGS"),
    ("analysis/dataflow/frames.py", "INFORMATIVE"),
    ("analysis/dataflow/live_attributes.py", "_DERIVING"),
    ("analysis/dataflow/typeinfer.py", "_PRIORITY"),
    ("analysis/plan/rules.py", "_FRAME_CONSUMING"),
    ("analysis/plan/rules.py", "BUILTIN_RULES"),
    ("analysis/plan/schema.py", "_NUMERIC_DTYPES"),
    ("analysis/plan/schema.py", "_UNKNOWN_SCHEMAS"),
    ("analysis/plan/schema.py", "SCHEMA_RULES"),
    ("analysis/rewrite/forced_compute.py", "_LAZY_KINDS"),
    ("backends/base.py", "_BINOPS"),
    ("backends/dask_sim/frame.py", "_PARTIAL_PLANS"),
    ("backends/dask_sim/frame.py", "_RECOMBINE"),
    ("core/backend_choice.py", "ORDER_SENSITIVE_OPS"),
    ("core/config.py", "_REGISTRY"),
    ("core/config.py", "LEGACY_FLAG_KEYS"),
    ("core/lazyframe.py", "_BINOP_LABELS"),
    ("core/optimizer/common_subexpr.py", "_SHARABLE_OPS"),
    ("core/optimizer/projection.py", "_PASSTHROUGH"),
    ("core/optimizer/projection.py", "_FRAME_OPS"),
    ("frame/dtypes.py", "_ALIASES"),
    ("frame/io_csv.py", "_HEADER_CACHE"),
    ("graph/explain.py", "_ELIDED_ARGS"),
    ("graph/explain.py", "_SCAN_SPECIAL"),
    ("graph/node.py", "OPS"),
    ("graph/node.py", "_ELEMENTWISE_SERIES_OPS"),
    ("graph/scheduler/estimates.py", "_DTYPE_WIDTHS"),
    ("io/columnar.py", "_FOOTER_CACHE"),
    ("io/fs.py", "_FILESYSTEMS"),
    ("io/fs.py", "_CODECS"),
    ("io/predicate.py", "_COMPARISONS"),
    ("io/predicate.py", "_FLIPPED"),
    ("lazyfatpandas/pandas.py", "_SYNCED_MODULES"),
    ("workloads/datagen.py", "PARTITION_KEYS"),
    ("workloads/datagen.py", "_GENERATORS"),
    ("workloads/programs.py", "PROGRAMS"),
    ("workloads/runner.py", "SCALES"),
    ("workloads/runner.py", "MODES"),
    ("workloads/runner.py", "_HEADERS"),
    ("workloads/runner.py", "_BACKEND_OF_MODE"),
}


def _is_registry_call(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = getattr(func, "id", None) or getattr(func, "attr", None) or ""
    return name.endswith("Registry")


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def check_mutable_globals(tree: ast.Module, rel: str) -> Iterator[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if value is None or _is_registry_call(value):
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if target.id == "__all__":
                continue
            if (rel, target.id) in MUTABLE_GLOBAL_ALLOWLIST:
                continue
            yield (
                f"src/repro/{rel}:{stmt.lineno}: new module-level mutable "
                f"global '{target.id}' -- use a registry "
                f"(see tools/check_invariants.py) or pin it in "
                f"MUTABLE_GLOBAL_ALLOWLIST"
            )


# ---------------------------------------------------------------------------
# check 2: real-pandas imports / pandas.read_csv calls

#: modules allowed to touch real pandas, should the need ever arise:
#: the source layer and the deprecation shims.
_PANDAS_ALLOWED_PREFIXES = ("io/",)
_PANDAS_ALLOWED_FILES = ("core/compat.py",)


def _pandas_allowed(rel: str) -> bool:
    return rel in _PANDAS_ALLOWED_FILES or rel.startswith(
        _PANDAS_ALLOWED_PREFIXES
    )


def check_real_pandas(tree: ast.Module, rel: str) -> Iterator[str]:
    if _pandas_allowed(rel):
        return
    pandas_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pandas" or alias.name.startswith("pandas."):
                    pandas_aliases.add(alias.asname or alias.name.split(".")[0])
                    yield (
                        f"src/repro/{rel}:{node.lineno}: imports real "
                        f"pandas; the repro stack must stay "
                        f"self-contained outside io/ and core/compat.py"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "pandas" or (
                node.module or ""
            ).startswith("pandas."):
                yield (
                    f"src/repro/{rel}:{node.lineno}: imports from real "
                    f"pandas; the repro stack must stay self-contained "
                    f"outside io/ and core/compat.py"
                )
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "read_csv":
            continue
        base = node.func.value
        base_name = getattr(base, "id", None)
        if base_name in pandas_aliases or base_name == "pandas":
            yield (
                f"src/repro/{rel}:{node.lineno}: direct pandas.read_csv "
                f"call; go through the source layer (repro.io) instead"
            )


# ---------------------------------------------------------------------------
# check 3: register_op must declare mod_attrs and used_attrs


def check_register_op(tree: ast.Module, rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name != "register_op":
            continue
        # the contract keywords live on the wrapped OpSpec(...) call
        # (register_op(OpSpec(...))) or, for a hypothetical keyword
        # form, on register_op itself.
        spec_call = node
        if node.args and isinstance(node.args[0], ast.Call):
            spec_call = node.args[0]
        keywords = {kw.arg for kw in spec_call.keywords if kw.arg}
        keywords |= {kw.arg for kw in node.keywords if kw.arg}
        missing = sorted({"mod_attrs", "used_attrs"} - keywords)
        if missing:
            yield (
                f"src/repro/{rel}:{node.lineno}: register_op call missing "
                f"explicit {', '.join(missing)} -- the optimizer trusts "
                f"these; declare the op's column contract"
            )


# ---------------------------------------------------------------------------

CHECKS = (check_mutable_globals, check_real_pandas, check_register_op)


def run(src: Path = SRC) -> List[str]:
    failures: List[str] = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - ruff catches first
            failures.append(f"src/repro/{rel}: syntax error: {exc}")
            continue
        for check in CHECKS:
            failures.extend(check(tree, rel))
    return failures


def main() -> int:
    failures = run()
    if failures:
        print(f"{len(failures)} invariant violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
