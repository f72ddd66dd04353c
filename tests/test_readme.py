"""README's examples give the values it shows."""

import ast
import re
import shlex
from pathlib import Path

from maxclass import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(lang: str, containing: str) -> str:
    """The body of the first ```lang block that contains `containing`."""
    return next(body for body in re.findall(rf"```{lang}\n(.*?)```", README, re.S)
                if containing in body)


def test_library_example():
    # each bare expression of the block is followed by a comment that
    # begins with the value it gives
    code = block("python", "from maxclass import")
    lines = code.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            value = eval(source, namespace)
            comment = lines[node.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (source, comment)
            shown.append(value)
        else:
            exec(source, namespace)
    assert shown == [True, [26, 25, 25], True]


def test_construct_example(capsys):
    command, *shown = block("sh", "$ maxclass construct").splitlines()
    argv = shlex.split(command)[2:]
    assert argv == ["construct", "--p", "5", "--c", "2", "--n", "2", "--m", "1",
                    "--format", "text"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == shown[:3]
    assert shown[3].endswith(",...")
    assert out[3].startswith(shown[3][:-3])
