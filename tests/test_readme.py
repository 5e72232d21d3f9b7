"""The README's examples run and give what they say: the Library example's
values, and the CLI block's commands exit 0 with output that parses.  The
CLI test imports no numpy, so it also runs without numpy installed."""

import csv
import json
import pathlib
import re
import shlex

from hyperwalk.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CSV_HEADERS = {
    "spectrum": "eigenvalue,multiplicity,card",
    "evolve": "node,probability",
    "time-average": "node,probability",
    "pst": "node,fidelity",
}


def test_the_library_example_runs_as_documented():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["fid"] == 1.0
    assert namespace["avg"].method == "krawtchouk"


def test_the_cli_examples_run_as_documented(capsys):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)\n```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("hyperwalk ")]
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        args = build_parser().parse_args(argv)
        if args.format == "json":
            assert json.loads(out)["schema"] == "hyperwalk/1", line
        elif args.format == "csv":
            rows = list(csv.reader(row for row in out.splitlines() if not row.startswith("#")))
            header = CSV_HEADERS[args.command]
            if getattr(args, "amplitudes", False):
                header += ",amp_re,amp_im"
            assert ",".join(rows[0]) == header, line
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), line
        else:
            assert args.format == "dot", line
            assert re.match(r'graph "hypercube_L\d+" \{\n', out), line
            assert out.endswith("}\n"), line
