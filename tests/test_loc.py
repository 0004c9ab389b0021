"""tools/loc.py's counting rule, on a small source and on a known tree.

A line counts when it holds a token that is not a comment, a newline, an
indent or a docstring; a statement over several lines counts each of them.
"""

import importlib.util
import os
import subprocess
import sys
import tarfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOC = os.path.join(ROOT, "tools", "loc.py")

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


def f(a,
      b):
    """Function docstring."""

    # an indented comment
    return (a
            + b)


class C:
    """Class docstring."""

    TEXT = """a string that is
not a docstring"""
'''
# counted: import os, the two lines of def f, the two of return, class C, the two of TEXT
SOURCE_LINES = 1 + 2 + 2 + 1 + 2

# the tree of commit 5ed87ae, by its code lines per module
KNOWN_COMMIT = "5ed87ae"
KNOWN_COUNTS = {
    "data.py": 417, "cli.py": 411, "model.py": 376, "bezier.py": 286, "nn.py": 176, "synth.py": 171,
    "stencil.py": 116, "geometry.py": 74, "__init__.py": 56, "report.py": 54, "files.py": 42,
    "shapes.py": 35, "errors.py": 30,
}


def _loc_module():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert _loc_module().code_lines(path) == SOURCE_LINES


def test_prints_the_known_counts_of_a_known_tree(tmp_path):
    archive = tmp_path / "tree.tar"
    try:
        subprocess.run(["git", "-C", ROOT, "archive", "-o", str(archive), KNOWN_COMMIT, "src/wingcp"],
                       check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(f"no git checkout holding commit {KNOWN_COMMIT}")
    with tarfile.open(archive) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = tmp_path / member.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())
    tree = tmp_path / "src" / "wingcp"
    out = subprocess.run([sys.executable, LOC, str(tree)], check=True, capture_output=True, text=True).stdout
    *modules, total = out.splitlines()
    assert {name: int(n) for n, name in (line.split() for line in modules)} == KNOWN_COUNTS
    assert total.split()[0] == str(sum(KNOWN_COUNTS.values())) == "2244"
