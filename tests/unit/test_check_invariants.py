"""The repo invariant checker (``tools/check_invariants.py``)."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_invariants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_invariants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _source_ops_failures(code):
    tool = _load_tool()
    return list(tool.check_source_ops(ast.parse(code), "graph/node.py"))


def test_tree_is_clean():
    assert _load_tool().run() == []


def test_second_file_reading_leaf_rejected():
    failures = _source_ops_failures(
        'register_op(OpSpec("read_csv", mod_attrs=_NO_COLS, '
        'used_attrs=_NO_COLS, is_source=True))'
    )
    assert len(failures) == 1
    assert "'read_csv'" in failures[0]


def test_scan_and_in_memory_sources_allowed():
    code = "\n".join(
        f'register_op(OpSpec("{op}", mod_attrs=_NO_COLS, '
        f'used_attrs=_NO_COLS, is_source=True))'
        for op in ("scan", "from_pandas", "from_data", "from_cached")
    )
    assert _source_ops_failures(code) == []


def test_non_source_op_ignored():
    assert _source_ops_failures(
        'register_op(OpSpec("read_csv", mod_attrs=_NO_COLS, '
        'used_attrs=_NO_COLS))'
    ) == []
