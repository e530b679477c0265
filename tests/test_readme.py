"""The library quickstart of README.md runs and prints what its comments say.

Each ``print(...)`` line of the block is followed by the text it prints, as a
comment on the same line or on the next one, so the block fails here as soon
as an API or a value it shows changes.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
