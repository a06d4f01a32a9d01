"""Replay the recorded CLI runs under tests/golden/ and compare the bytes.

``tests/golden/record.py`` wrote the inputs, the ``--format json`` stdout
and the exit code of each run; every route that computes modalities, sups,
enumerations or validations must keep producing exactly that output.
"""

import json
from pathlib import Path

import pytest

from oraclemod import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_cli_output_is_byte_identical(case, capsys):
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
    status = cli.run(["--format", "json", *argv])
    want = (GOLDEN / "expected" / f"{case['id']}.json").read_text(encoding="utf-8")
    assert (capsys.readouterr().out, status) == (want, case["exit"])
