import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_examples_run_in_order(monkeypatch):
    # The README's "Library" section, block by block in one namespace, as a
    # reader at the repository root would paste it.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 3
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
