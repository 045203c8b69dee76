"""The README's library example runs as written and prints what its
comments say, and its command-line section names only real options."""

import argparse
import contextlib
import io
import pathlib
import re

from linkvol import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [ln.split("# ", 1)[1] for ln in code.splitlines()
                if ln.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_command_line_flags_are_options():
    section = README.read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {opt for sp in sub.choices.values()
               for opt in sp._option_string_actions}
    assert flags
    assert flags <= options, sorted(flags - options)
