"""The README's CLI examples print what their ``# ->`` comments say, its
flag list names the options the parser takes, and the console script it
runs them with is the one pyproject.toml installs."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

from collision_lab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def test_console_script_is_cli_main():
    # the name the README's examples run; pyproject.toml is read with a
    # regex, as Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    entries = re.findall(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert [name for name, _, _ in entries] == ["collision-lab"]
    _, module, attr = entries[0]
    assert getattr(importlib.import_module(module), attr) is main
