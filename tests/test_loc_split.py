"""tools/loc_split.py: a known split of a small fixture, and every
``src/fbenv`` file split into kinds that sum to its physical lines."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("loc_split", _ROOT / "tools" / "loc_split.py")
loc_split = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc_split)

FIXTURE = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class Thing:
    """Class docstring.

    Its blank line is docstring too."""

    def method(self):
        """One line."""
        text = """a string,
not a docstring"""
            # an indented comment
        return text
'''


def test_fixture_split():
    assert loc_split.split(FIXTURE) == {"code": 6, "docstring": 6, "comment": 2, "blank": 4}


def test_every_source_file_splits_into_its_physical_lines():
    paths = loc_split.files([_ROOT / "src" / "fbenv"])
    assert paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        assert sum(loc_split.split(source).values()) == len(source.splitlines()), path
