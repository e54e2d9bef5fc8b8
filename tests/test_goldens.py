"""Golden CLI output for every fixture.

``goldens.json`` records the stdout and exit code of ``analyze``, and of
``solve`` and ``maximin`` at one (p1, p2) pair per parameter region, for
every network under ``fixtures/``, in both output formats. It also
records ``verify`` and both players' ``best-response`` against each
profile that ``solve`` constructs at a region's parameters, and against
two profiles that are not equilibria: the Region II profile at the
Region III parameters (the attacker gains by cutting), and the Region
III profile at doubled parameters (both players gain by deviating). A
change that alters any of them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_goldens.py

and says why the output changed.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from flowgame.cli import main

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
FIXTURES = HERE / "fixtures"

# Every fixture's cheapest path cost is 2 or 3, so p1 = 1 is below it and
# p1 = 6 above it; p2 = 1 is the boundary between Regions II and III.
PARAMS = {"I": ("1", "2"), "II": ("6", "1/2"), "III": ("6", "2"), "boundary": ("6", "1")}

# Profiles verified away from the parameters they were built for: the
# region whose profile is used, a name for the parameters, and (p1, p2).
OFF_PARAMS = (("II", "III", PARAMS["III"]), ("III", "double", ("12", "4")))


def _profile(fixture: Path, region: str):
    """The profile ``solve`` constructs at the region's parameters, or
    None where it builds none (a boundary, or exit 3)."""
    p1, p2 = PARAMS[region]
    record = _record(["solve", str(fixture), "--p1", p1, "--p2", p2], "json")
    if record["exit"] not in (0, 1):
        return None
    return json.loads(record["stdout"])["equilibrium"]


def _profile_runs(fixture: Path, directory: Path):
    """``verify`` and both ``best-response`` runs against each profile,
    written under ``directory``."""
    cases = [(region, region, PARAMS[region]) for region in PARAMS]
    cases += [(region, f"at {name}", params) for region, name, params in OFF_PARAMS]
    for region, label, (p1, p2) in cases:
        profile = _profile(fixture, region)
        if profile is None:
            continue
        path = directory / f"{fixture.stem}-{region}-{p1}-{p2}.json".replace("/", "_")
        path.write_text(json.dumps(profile))
        name = f"{fixture.name} {{}} {region} profile {label}"
        game = ["--p1", p1, "--p2", p2]
        yield name.format("verify"), ["verify", str(fixture), str(path), *game]
        for player in ("1", "2"):
            yield (
                name.format(f"best-response {player}"),
                ["best-response", str(fixture), str(path), "--player", player, *game],
            )


def _runs(directory: Path):
    for fixture in sorted(FIXTURES.glob("*.json")):
        argvs = [(f"{fixture.name} analyze", ["analyze", str(fixture)])]
        for command in ("solve", "maximin"):
            for region, (p1, p2) in PARAMS.items():
                argvs.append(
                    (
                        f"{fixture.name} {command} {region}",
                        [command, str(fixture), "--p1", p1, "--p2", p2],
                    )
                )
        argvs += _profile_runs(fixture, directory)
        for fmt in ("json", "text"):
            for key, argv in argvs:
                yield f"{key} {fmt}", argv, fmt


def _record(argv, fmt) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


def test_cli_output_matches_goldens(tmp_path):
    goldens = json.loads(GOLDENS.read_text())
    runs = list(_runs(tmp_path))
    assert sorted(key for key, _, _ in runs) == sorted(goldens)
    for key, argv, fmt in runs:
        assert _record(argv, fmt) == goldens[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        records = {key: _record(argv, fmt) for key, argv, fmt in _runs(Path(directory))}
    GOLDENS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
