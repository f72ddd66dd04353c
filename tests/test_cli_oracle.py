"""Byte-identical command-line output against the benchmark's recorded oracle.

`perfbench/oracle.json` holds, for every fixed benchmark request, its argv,
exit code and the sha256 of its stdout.  Each request runs here through
`cli.main` in this process; the file is only read.

The benchmark's searches run at p <= 5.  LARGE_PRIME adds two searches at
p = 31 and p = 101, where most candidates are rejected, recorded from the
search that built and checked a row for every candidate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from maxclass import cli

ORACLE = json.loads((Path(__file__).parent.parent / "perfbench" / "oracle.json").read_text())

LARGE_PRIME = {
    "search/p31-n3-d80": {
        "argv": ["search", "--p", "31", "--n", "3", "--depth", "80"], "exit": 0,
        "sha256": "163c93589afb3cbfffc3cb837b8641231ff0f10f11e36d518ff6e08648650dae"},
    "search/p101-n2-d120": {
        "argv": ["search", "--p", "101", "--n", "2", "--depth", "120"], "exit": 0,
        "sha256": "05d00a018f7a786ce3569d83941139b6d91226fb6bcc321db5d692b390e4a11c"},
}


@pytest.mark.parametrize("record", [*ORACLE.values(), *LARGE_PRIME.values()],
                         ids=[*ORACLE, *LARGE_PRIME])
def test_stdout_and_exit_match_the_record(record, capsys):
    code = cli.main(list(record["argv"]))
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == record["sha256"]


def test_the_record_covers_each_stdout_workload():
    # an empty or truncated record would leave the test above with nothing to run
    assert {rec["argv"][0] for rec in ORACLE.values()} == {"classify", "construct", "search"}
