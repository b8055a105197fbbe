"""The README's CLI examples print what their ``# ->`` comments say, and
its flag list names the options the parser takes."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from collision_lab.cli import build_parser, main

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


def test_flag_list_matches_parser():
    # the README sentence that starts "Flags:" and ends at its first full stop
    flags = re.search(r"^Flags:(.*?)\.\s", README.read_text(), re.M | re.S).group(1)
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in subparsers.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    assert set(re.findall(r"`(--[a-z-]+)", flags)) == options - {"--help"}
