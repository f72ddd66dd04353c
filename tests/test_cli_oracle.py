"""Byte-identical command-line output against the benchmark's recorded oracle.

`perfbench/oracle.json` holds, for every fixed benchmark request, its argv,
exit code and the sha256 of its stdout.  Each request runs here through
`cli.main` in this process; the file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from maxclass import cli

ORACLE = json.loads((Path(__file__).parent.parent / "perfbench" / "oracle.json").read_text())


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_stdout_and_exit_match_the_record(name, capsys):
    record = ORACLE[name]
    code = cli.main(list(record["argv"]))
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == record["sha256"]


def test_the_record_covers_each_stdout_workload():
    # an empty or truncated record would leave the test above with nothing to run
    assert {rec["argv"][0] for rec in ORACLE.values()} == {"classify", "construct", "search"}
