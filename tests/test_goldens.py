"""Golden CLI output for every fixture.

``goldens.json`` records the stdout and exit code of ``analyze``, and of
``solve`` and ``maximin`` at one (p1, p2) pair per parameter region, for
every network under ``fixtures/``, in both output formats. A change that
alters any of them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_goldens.py

and says why the output changed.
"""

import contextlib
import io
import json
from pathlib import Path

from flowgame.cli import main

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
FIXTURES = HERE / "fixtures"

# Every fixture's cheapest path cost is 2 or 3, so p1 = 1 is below it and
# p1 = 6 above it; p2 = 1 is the boundary between Regions II and III.
PARAMS = {"I": ("1", "2"), "II": ("6", "1/2"), "III": ("6", "2"), "boundary": ("6", "1")}


def _runs():
    for fixture in sorted(FIXTURES.glob("*.json")):
        for fmt in ("json", "text"):
            yield f"{fixture.name} analyze {fmt}", ["analyze", str(fixture)], fmt
            for command in ("solve", "maximin"):
                for region, (p1, p2) in PARAMS.items():
                    key = f"{fixture.name} {command} {region} {fmt}"
                    yield key, [command, str(fixture), "--p1", p1, "--p2", p2], fmt


def _record(argv, fmt) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


def test_cli_output_matches_goldens():
    goldens = json.loads(GOLDENS.read_text())
    keys = [key for key, _, _ in _runs()]
    assert sorted(keys) == sorted(goldens)
    for key, argv, fmt in _runs():
        assert _record(argv, fmt) == goldens[key], key


if __name__ == "__main__":
    records = {key: _record(argv, fmt) for key, argv, fmt in _runs()}
    GOLDENS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
