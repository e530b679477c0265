"""The library quickstart and the CLI examples of README.md run and print
what their comments say.

Each ``print(...)`` line of the quickstart is followed by the text it prints,
as a comment on the same line or on the next one, and a CLI example with a
comment prints that comment's JSON, so either block fails here as soon as an
API, a flag or a value it shows changes.  The CLI examples read the graph and
Laurent-value files that README's schema section shows.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from confeyn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def block(after: str, lang: str) -> str:
    """The first ```lang block of README.md after the text ``after``."""
    section = README.read_text().split(after, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def quickstart() -> str:
    return block("## Library quickstart", "python")


def printed_comments(code: str) -> list[str]:
    """The comment that goes with each print line, in order."""
    lines = code.splitlines()
    out = []
    for line, following in zip(lines, lines[1:] + [""]):
        if line.startswith("print("):
            _, sep, comment = line.partition("#")
            if not sep:
                assert following.startswith("# "), line
                comment = following[1:]
            out.append(comment.strip())
    return out


def test_quickstart_prints_its_comments():
    code = quickstart()
    want = printed_comments(code)
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quickstart", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_cli_examples_run_and_print_their_comments(tmp_path, monkeypatch, capsys):
    graph = json.loads(block("**Graph file**", "json"))
    (tmp_path / "graphs.json").write_text(json.dumps([graph]))
    (tmp_path / "phi.json").write_text(block("**Laurent values**", "json"))
    monkeypatch.chdir(tmp_path)
    examples = block("## CLI", "sh").splitlines()
    assert len(examples) == 15
    commented = 0
    for line in examples:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "confeyn", line
        capsys.readouterr()
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if comment:
            assert out.strip() == comment.strip(), line
            commented += 1
    assert commented == 2
