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
