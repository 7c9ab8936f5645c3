"""Guards on the package's layout: the README's examples run, every name a
module exports resolves, and the import boundaries between modules hold."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "dispatchkit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)

# the compiler's private helpers, which only `runtime` may use
COMPILER_HELPERS = {"_call", "_compile_expr", "_param_slots"}


def _imports(module: str):
    """(imported module, names) for each import statement of a package
    module, with relative imports spelled out as `dispatchkit.<name>`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = "dispatchkit" + ("." + source if source else "")
            yield source, {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, set()


@pytest.mark.parametrize("k", range(len(README_BLOCKS)))
def test_readme_python_blocks_run(k):
    exec(compile(README_BLOCKS[k], f"README.md python block {k + 1}", "exec"), {})


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 3


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"dispatchkit.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (module, missing)


def test_inference_imports_nothing_from_the_runtime():
    for source, names in _imports("inference"):
        assert source != "dispatchkit.runtime", names
        assert not (source == "dispatchkit" and "runtime" in names)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_the_compiler_helpers(module):
    for source, names in _imports(module):
        assert not names & COMPILER_HELPERS, (module, source, names & COMPILER_HELPERS)
