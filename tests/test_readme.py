"""The README's python blocks run as written, in order, in one namespace, and the
nfgdual lines of its first command block run and exit 0."""

import re
import shlex
from pathlib import Path

from nfgdual.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def cli_commands(text: str) -> list:
    """argv lists of the nfgdual lines in the first sh block that has any,
    with backslash continuations joined and comments dropped."""
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        lines = block.replace("\\\n", " ").splitlines()
        commands = [argv for argv in (shlex.split(line, comments=True) for line in lines)
                    if argv[:1] == ["nfgdual"]]
        if commands:
            return commands
    return []


def test_readme_python_blocks_run(monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(README.parent)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_command_block_runs(monkeypatch, capsys):
    commands = cli_commands(README.read_text(encoding="utf-8"))
    assert [argv[1] for argv in commands] == [
        "model", "exact", "bp", "gibbs", "swp", "map", "gaussian"]
    monkeypatch.chdir(README.parent)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, f"`{shlex.join(argv)}` exited {code}: {capsys.readouterr().err}"
