"""Property test of the JSON report writer.

``--format json`` reports are written by ``cli._json_chunks``, which must
give the bytes of ``json.dumps(report, indent=2)`` on everything a report
can hold: nested dicts, lists and tuples of text, ints, bools and None.
The examples are derandomized, so every run of the suite tries the same
ones.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from flowgame.cli import _json_chunks  # noqa: E402

# Text with the characters an encoder must escape: quotes, backslashes,
# control characters, non-ASCII, lone surrogates, and the line and
# paragraph separators.
TEXT = st.text(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800",
             "\udfff", "\xe9", "\u20ac", "\U0001f600"]
        ),
        st.characters(),
    ),
    max_size=8,
)
SCALAR = st.one_of(
    TEXT, st.integers(), st.integers(min_value=10**30), st.booleans(), st.none(),
    # empty containers as leaves, so they occur at every depth
    st.just([]), st.just({}), st.just(()),
)
VALUE = st.recursive(
    SCALAR,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=30,
)
SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def written(value) -> str:
    out = []
    _json_chunks(value, "", out)
    return "".join(out)


@SETTINGS
@given(value=VALUE)
def test_writer_matches_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2)


@settings(SETTINGS, max_examples=100)
@given(value=VALUE, bad=st.sampled_from([1.5, 0.0, Fraction(1, 3), Fraction(2)]),
       where=st.integers(0, 2))
def test_writer_refuses_floats_and_fractions(value, bad, where):
    nested = [bad, {"key": bad}, (value, {"inner": [bad]})][where]
    with pytest.raises(TypeError):
        written([value, nested])


def test_writer_refuses_keys_that_are_not_str():
    with pytest.raises(TypeError, match=r"^keys must be str, not int$"):
        written({"a": 1, 2: "b"})
