"""The README's library examples run as written: its ``python`` code
blocks, in order, in one namespace, at the sizes the README gives."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert float(capsys.readouterr().out.split()[0]) > 0  # the quick start's delay
