"""The README's Library example runs and gives what its comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_as_documented():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["fid"] == 1.0
    assert namespace["avg"].method == "krawtchouk"
