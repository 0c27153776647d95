"""The README's Python examples, run as doctests, and its command-line
examples, run through the CLI."""

import doctest
import re
import shlex
from pathlib import Path

from coxcodes import cli

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


def test_readme_command_line_examples(capsys):
    text = README.read_text(encoding="utf-8")
    fences = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = [
        line for fence in fences for line in fence.splitlines()
        if line.startswith("coxcodes ")
    ]
    assert lines, "README.md has no command-line examples"
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert cli.main(argv[1:]) == 0, line
        capsys.readouterr()
