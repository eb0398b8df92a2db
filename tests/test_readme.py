"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    exec(compile(example, str(README), "exec"), {})
    assert "Y⊗X⊗Z" in capsys.readouterr().out
