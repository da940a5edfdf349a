"""The python examples in README.md run as written, and its CLI commands parse."""

import re
import shlex
from pathlib import Path

from rootrand import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # Blocks run in order in one namespace, as a reader pasting them would.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_documented_cli_commands_parse():
    # Every rootrand command in README's sh blocks and the cli docstring is
    # parsed, not run, so a renamed or removed flag fails here.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    commands = [line.strip() for text in (*blocks, cli.__doc__) for line in text.splitlines()
                if line.strip().startswith("rootrand ")]
    assert len(commands) >= 9
    parser = cli.build_parser()
    rejected = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            rejected.append(command)
    assert rejected == []
