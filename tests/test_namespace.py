"""The package namespace: ``import ringgraph`` loads no submodule, each
public name loads the module that defines it on first use, and
``import ringgraph.cli`` loads every module."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ringgraph

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "ringgraph").glob("*.py") if p.stem not in ("__init__", "__main__"))


def loaded_after(code: str) -> list:
    """The ``ringgraph.*`` modules a fresh interpreter holds after ``code``."""
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('ringgraph.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.split()


def test_import_loads_no_submodule():
    assert loaded_after("import ringgraph") == []


def test_a_name_loads_only_what_its_module_needs():
    loaded = loaded_after("from ringgraph import PolyRing, buchberger")
    assert loaded == ["ringgraph.errors", "ringgraph.fields", "ringgraph.groebner", "ringgraph.polynomials"]


def test_cli_loads_every_module():
    # perfbench/layertrace.py relies on this: Tracer.install() imports
    # ringgraph.cli, then finds every traced function through sys.modules.
    assert loaded_after("import ringgraph.cli") == [f"ringgraph.{m}" for m in SUBMODULES]


def test_every_public_name_is_its_modules_object():
    assert len(set(ringgraph.__all__)) == len(ringgraph.__all__)
    for module, names in ringgraph._EXPORTS.items():
        defining = importlib.import_module(f"ringgraph.{module}")
        for name in names:
            assert getattr(ringgraph, name) is getattr(defining, name), name


def test_dir_covers_all():
    assert set(ringgraph.__all__) <= set(dir(ringgraph))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ringgraph.no_such_name
    assert not hasattr(ringgraph, "no_such_name")


def test_no_public_name_is_a_submodule_name():
    assert not set(ringgraph.__all__) & set(SUBMODULES)
    from ringgraph import gamma as gamma_module

    assert isinstance(gamma_module, types.ModuleType)
    assert gamma_module is sys.modules["ringgraph.gamma"]
