"""Property-based fuzz of the command line.

Malformed networks and profiles (non-string names, names with line
breaks, floats, zero and huge denominators, missing keys, wrong shapes)
go through all five subcommands in process. Every run must return an
exit code from 0 to 5, raise nothing, and leave stderr empty or write
exactly one ``error:`` line. The examples are derandomized, so every run
of the suite tries the same ones.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from flowgame.cli import main  # noqa: E402

NAMES = ["s", "t", "a", "b\nc", "d\r e"]

NAME = st.one_of(st.sampled_from(NAMES), st.text(max_size=3))
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# Exact rationals, among them huge denominators and numerators.
RATIONAL = st.sampled_from(
    ["0", "1", "2", "3", "1/2", "7/3", 1, 2, f"1/{10**40}", f"{10**40 + 1}/{10**40}"]
)
NUMBER = st.one_of(
    RATIONAL,
    st.integers(),
    st.floats(),
    st.builds(lambda num, den: f"{num}/{den}", st.integers(-2, 5), st.sampled_from([0, 3])),
    st.sampled_from(["", "x", "1.5", "1e3", " 2 / 3 ", "1/" + "9" * 5000, "9" * 5000]),
    JUNK,
)
PARAMS = ["1", "6", "2", "1/2", "7/2", "0", "-1", "1.5", "x", "1/0"]
COMMAND = st.sampled_from(
    [["analyze"], ["solve"], ["verify"], ["best-response", "--player", "1"],
     ["best-response", "--player", "2"], ["maximin"]]
)


@st.composite
def runs(draw):
    """A network, a profile, a command and (p1, p2). Half the examples
    are well-formed down to every value; in the rest each part may be
    missing, junk or of the wrong shape."""
    clean = draw(st.booleans())
    number = RATIONAL if clean else NUMBER

    def shaped(value):
        return value if clean or draw(st.integers(0, 4)) else draw(JUNK)

    def dropped(data):
        if not clean:
            for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
                del data[key]
        return data

    names = draw(st.lists(NAME, min_size=2, max_size=5, unique=True))
    name = st.sampled_from(names)
    pairs = st.tuples(name, name)
    if clean:  # no self-loops or parallel edges
        pairs = pairs.filter(lambda pair: pair[0] != pair[1])
    links = draw(st.lists(pairs, max_size=8, unique=clean))
    edges = [
        shaped(dropped({
            "from": shaped(tail), "to": shaped(head),
            "capacity": draw(number), "cost": draw(number),
        }))
        for tail, head in links
    ]
    network = {"nodes": shaped(names), "edges": shaped(edges)}
    ends = names[:2] if clean else [shaped(draw(name)), shaped(draw(name))]
    if draw(st.booleans()):
        network |= {"source": ends[0], "sink": ends[1]}
    elif clean:
        network |= {"sources": [ends[0]], "sinks": [ends[1]]}
    else:
        ends = [shaped(draw(st.lists(name, max_size=2))) for _ in ends]
        network |= {"sources": ends[0], "sinks": ends[1]}
    network = shaped(dropped(network))

    # Well-formed profiles walk and cut the network's own edges.
    link = st.sampled_from(links) if clean and links else st.tuples(name, name)

    def path():
        nodes = [ends[0]]
        while clean and nodes[-1] != ends[1]:
            steps = [head for tail, head in links if tail == nodes[-1] and head not in nodes]
            if not steps:
                break
            nodes.append(draw(st.sampled_from(steps)))
        if not clean:
            nodes += draw(st.lists(name, max_size=3)) + [ends[1]]
        return dropped({"nodes": shaped(nodes), "amount": draw(number)})

    def flow():
        paths = [shaped(path()) for _ in range(draw(st.integers(0, 2)))]
        return shaped({"paths": shaped(paths)})

    def attack():
        return shaped([shaped(list(draw(link))) for _ in range(draw(st.integers(0, 2)))])

    def entries(key, action):
        count = draw(st.integers(1, 2))
        prob = ("1" if count == 1 else "1/2") if clean else draw(NUMBER)
        return shaped([shaped(dropped({"prob": prob, key: action()})) for _ in range(count)])

    profile = shaped(dropped({
        "p1_strategy": entries("flow", flow), "p2_strategy": entries("attack", attack),
    }))
    param = st.sampled_from(PARAMS[:5] if clean else PARAMS)
    return network, profile, draw(COMMAND), draw(param), draw(param)


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=runs())
def test_cli_fuzz_exits_cleanly_with_one_line_errors(tmp_path_factory, run):
    network, profile, command, p1, p2 = run
    directory = tmp_path_factory.getbasetemp()
    network_path = directory / "fuzz_network.json"
    profile_path = directory / "fuzz_profile.json"
    network_path.write_text(json.dumps(network))
    profile_path.write_text(json.dumps(profile))

    argv = [command[0], str(network_path)]
    if command[0] != "analyze":
        argv += ["--p1", p1, "--p2", p2, "--max-paths", "50", "--max-attack-edges", "8"]
    if command[0] in ("verify", "best-response"):
        argv += [str(profile_path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6), (argv, code)
    message = err.getvalue()
    if message:
        assert message.startswith("error: ") and message.endswith("\n"), message
        assert len(message.splitlines()) == 1, message
