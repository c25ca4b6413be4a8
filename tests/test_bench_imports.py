"""The benchmark's worker imports only names the package exports, so that
deleting a public name cannot silently break the benchmark. Reads
bench/worker.py without importing or running it."""

import ast
from pathlib import Path

import ptring

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_bench_worker_imports_exist():
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ptring"
        for alias in node.names
    ]
    assert names, "bench/worker.py has no `from ptring import (...)` block"
    assert [n for n in names if not hasattr(ptring, n)] == []
