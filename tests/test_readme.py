"""The README's Python examples run and print what their comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_two_python_examples():
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_prints_its_comments(index):
    # each print call prints one line; a comment "# value  note" promises "value"
    source = EXAMPLES[index]
    promised = [
        line.partition("#")[2].strip().split("  ")[0] if "#" in line else None
        for line in source.splitlines()
        if line.lstrip().startswith("print(")
    ]
    printed = []
    exec(source, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(printed) == len(promised)
    for got, want in zip(printed, promised):
        if want is not None:
            assert got == want
