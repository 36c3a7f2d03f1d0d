import re
import shlex
from pathlib import Path

from hyprelax.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_library_examples_run_in_order(monkeypatch):
    # The README's "Library" section, block by block in one namespace, as a
    # reader at the repository root would paste it.
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_command_line_examples_parse():
    # Every command of the "Command line" block parses, so an example cannot
    # keep a removed flag; nothing is run.
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [line for line in block.splitlines() if line.startswith("hyprelax ")]
    assert len(commands) == 6
    parser = _build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
