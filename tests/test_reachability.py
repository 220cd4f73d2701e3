"""Every public top-level function and class in ``src/repro`` has a caller.

A public name is *reached* when something other than its own definition and
the tests uses it: another module of ``src/repro`` (a package ``__init__``
that only re-exports it does not count) or its own module outside the
definition, or ``benchmarks/``, ``tools/``, ``examples/``, ``perfbench/`` or
the CI workflow; or when a registry decorator (``@register_codec``,
``@register_backend("tcp")``, ...) registers it.  A name that only its own
tests call is library surface no run reaches: delete it with its tests, or
give it a caller.  The allowlist holds the reference implementations that
tests compare against.  The walk parses every file once (well under 1 s).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "tools", "examples", "perfbench")
WORKFLOWS = ROOT / ".github" / "workflows"

#: Reference implementations that only tests call, each kept as an oracle.
ALLOWED = {
    "repro.nn.functional.softmax": "tests/nn/reference_layers.py's oracle for the fused loss",
    "repro.nn.functional.log_softmax": "tests/nn/reference_layers.py's oracle for the fused loss",
    "repro.nn.functional.one_hot": "tests/nn/reference_layers.py's oracle for the fused loss",
    "repro.data.partitioner.partition_dataset": "tests/ps/test_session.py's byte-for-byte reference for rows=",
}


def _module_name(path: Path, source: Path = SOURCE) -> str:
    parts = path.relative_to(source.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _used_names(tree: ast.AST, skip: ast.AST | None = None, imports: bool = True) -> set[str]:
    """Identifiers ``tree`` reads: names, attributes and imported names.

    ``skip`` is a definition whose own body does not count; ``imports=False``
    ignores ``from ... import`` lists (a package ``__init__``'s re-exports).
    """
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _is_registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if "register" in name:
            return True
    return False


def unreached(root: Path = ROOT) -> list[str]:
    """Qualified names of the public top-level defs and classes nothing
    reaches in the repository at ``root``."""
    source = root / SOURCE.relative_to(ROOT)
    modules = {path: ast.parse(path.read_text(), str(path)) for path in sorted(source.rglob("*.py"))}
    external: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (root / directory).rglob("*.py"):
            external |= _used_names(ast.parse(path.read_text(), str(path)))
    for path in (root / WORKFLOWS.relative_to(ROOT)).glob("*.yml"):
        # A grep step names what it forbids: those names are not callers.
        lines = [line for line in path.read_text().splitlines() if "grep" not in line]
        external |= set(re.findall(r"\w+", "\n".join(lines)))
    by_module = {
        path: _used_names(tree, imports=path.name != "__init__.py") for path, tree in modules.items()
    }

    missing = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualified = f"{_module_name(path, source)}.{node.name}"
            if qualified in ALLOWED or _is_registered(node) or node.name in external:
                continue
            if node.name in _used_names(tree, skip=node):
                continue
            if any(node.name in used for other, used in by_module.items() if other != path):
                continue
            missing.append(qualified)
    return missing


def test_every_public_name_has_a_caller():
    missing = unreached()
    assert not missing, (
        "public names in src/repro that no module, bench, tool, example, perfbench path "
        "or CI step reaches (delete them, or give them a caller): " + ", ".join(missing)
    )


def test_the_allowlist_names_live_definitions():
    for qualified in ALLOWED:
        module, name = qualified.rsplit(".", 1)
        path = SOURCE.parent / (module.replace(".", "/") + ".py")
        tree = ast.parse(path.read_text())
        assert any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            for node in tree.body
        ), qualified


def make_repo(tmp_path, files):
    """A repository holding ``src/repro/pkg/mod.py``'s orphan plus ``files``."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": "def orphan():\n    return 1\n",
        **files,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_a_name_only_its_tests_call_is_reported(tmp_path):
    repo = make_repo(tmp_path, {"tests/test_mod.py": "from repro.pkg.mod import orphan\norphan()\n"})
    assert unreached(repo) == ["repro.pkg.mod.orphan"]


def test_a_package_reexport_is_not_a_caller(tmp_path):
    repo = make_repo(tmp_path, {"src/repro/pkg/__init__.py": "from repro.pkg.mod import orphan\n"})
    assert unreached(repo) == ["repro.pkg.mod.orphan"]


def test_a_grep_step_in_ci_is_not_a_caller(tmp_path):
    workflow = "steps:\n  - run: ! grep -rn orphan src/repro\n"
    repo = make_repo(tmp_path, {".github/workflows/ci.yml": workflow})
    assert unreached(repo) == ["repro.pkg.mod.orphan"]


@pytest.mark.parametrize(
    "files",
    [
        {"src/repro/other.py": "from repro.pkg.mod import orphan\n\nVALUE = orphan()\n"},
        {"src/repro/pkg/mod.py": "def orphan():\n    return 1\n\nVALUE = orphan()\n"},
        {"tools/script.py": "from repro.pkg.mod import orphan\n"},
        {".github/workflows/ci.yml": "steps:\n  - run: python -c 'orphan'\n"},
        {"src/repro/pkg/mod.py": "@register_codec\ndef orphan():\n    return 1\n"},
        {"src/repro/pkg/mod.py": "def _orphan():\n    return 1\n"},
    ],
    ids=["other-module", "own-module", "tool", "ci-step", "registered", "private"],
)
def test_a_reached_name_is_not_reported(tmp_path, files):
    assert unreached(make_repo(tmp_path, files)) == []
