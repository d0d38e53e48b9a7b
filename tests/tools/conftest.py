"""Load the gate scripts under ``tools/`` as modules."""

import importlib.util
import os

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def load_tool(name: str):
    path = os.path.join(TOOLS_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_determinism():
    return load_tool("check_determinism")


@pytest.fixture(scope="module")
def check_perf():
    return load_tool("check_perf")
