"""The README's CLI examples print what their ``# ->`` comments say."""

import re
import shlex
from pathlib import Path

import pytest

from collision_lab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# a line of the README's CLI block and the output its comment pins
EXAMPLES = re.findall(r"^collision-lab (.+?)\s+# -> (.+)$", README.read_text(), re.M)


def words(text):
    return " " + " ".join(text.split()) + " "


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("args, value", EXAMPLES, ids=[args for args, _ in EXAMPLES])
def test_example_prints_its_value(capsys, args, value):
    assert main(shlex.split(args)) == 0
    assert words(value) in words(capsys.readouterr().out)
