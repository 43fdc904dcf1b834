"""The package surface: the README's four library names, and one import path for every other name."""

import ast
import contextlib
import io
import pkgutil
import re
from pathlib import Path

import cvforms
from cvforms import cli

ROOT = Path(__file__).parents[1]
SUBMODULES = {m.name for m in pkgutil.iter_modules(cvforms.__path__)}


def _library_block() -> str:
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imports_from_package(path: Path):
    """The names of each ``from cvforms import ...`` (or ``from . import ...`` inside the package)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("cvforms", 0), (None, 1)):
            yield [alias.name for alias in node.names]


def test_all_is_the_readme_import_line():
    line = re.search(r"^from cvforms import (.+)$", _library_block(), re.M).group(1)
    assert cvforms.__all__ == [name.strip() for name in line.split(",")]
    assert cvforms.__all__ == ["CvForm", "evaluate", "generate_basis", "verify_independence"]


def test_readme_library_block_runs_as_written():
    printed, expected = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_library_block(), "README.md", "exec"), {})
    with contextlib.redirect_stdout(expected):
        assert cli.main(["eval", "[2 2 3 3]"]) == 0
    assert printed.getvalue() == expected.getvalue()


def test_every_other_name_comes_from_its_module():
    # the program imports submodules only; tests may also take the four library names
    for path in sorted((ROOT / "src" / "cvforms").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for names in _imports_from_package(path):
            assert set(names) <= SUBMODULES, (path.name, names)
    for path in sorted((ROOT / "tests").glob("*.py")):
        for names in _imports_from_package(path):
            assert set(names) <= SUBMODULES | set(cvforms.__all__), (path.name, names)
