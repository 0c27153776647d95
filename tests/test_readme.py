"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples():
    text = README.read_text(encoding="utf-8")
    fences = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert fences, "README.md has no python examples"
    runner = doctest.DocTestRunner()
    for fence in fences:
        lineno = text.count("\n", 0, fence.start(1))
        test = doctest.DocTestParser().get_doctest(
            fence.group(1), {}, f"README.md:{lineno + 1}", str(README), lineno
        )
        runner.run(test)
    assert runner.failures == 0
