import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import depnet


def test_public_names_unique_and_importable():
    """A name half removed from the package (dropped from its module but
    still exported, or exported twice) fails here."""
    assert len(depnet.__all__) == len(set(depnet.__all__))
    namespace: dict = {}
    exec("from depnet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(depnet.__all__)


def test_public_names_are_their_home_modules_objects():
    """The package hands out each name's own object, not a copy or a
    wrapper, from the module that defines it."""
    for name in depnet.__all__:
        obj = getattr(depnet, name)
        assert obj.__name__ == name
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_lists_every_public_name():
    assert set(depnet.__all__) <= set(dir(depnet))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        depnet.no_such_name
    assert getattr(depnet, "no_such_name", None) is None


def test_import_loads_no_layer():
    """Public names load their home module on first use, so importing the
    package alone executes no layer."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, depnet; "
         "print(*sorted(m for m in sys.modules if m.startswith('depnet')))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)})
    assert result.stdout.split() == ["depnet"]


# A file or in-memory stream read or written, or a stream type named.
FILE_ACCESS = re.compile(
    r"\.(?:read|write)_(?:text|bytes)\(|\bStringIO\b|\bIO\b|\bopen\(")


def test_only_the_cli_and_read_text_touch_files():
    """The edge and partition formats map text: files on disk are read only
    in `ingest.read_text` and written only in `cli._emit`, and `workers`
    opens only the ends of its pipes."""
    gates = {"cli.py": "_emit", "ingest.py": "read_text"}
    found = []
    for path in sorted(Path(depnet.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        if path.name in gates:
            gate = next(
                node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef)
                and node.name == gates[path.name])
            for i in range(gate.lineno - 1, gate.end_lineno):
                lines[i] = ""
        for lineno, line in enumerate(lines, start=1):
            for match in FILE_ACCESS.finditer(line):
                if not (path.name == "workers.py" and match[0] == "open("):
                    found.append(f"{path.name}:{lineno}: {match[0]}")
    assert found == []
