import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdilate.report import CheckRecord, Report


def build():
    rep = Report("demo", {"trunc": 8})
    rep.check("a", "x = y", 1e-12, 1e-10)
    rep.check("b", "u = v", 2e-9, 1e-10)
    rep.skip("c", "vacuous here", note="empty space")
    rep.require("d", "ranks equal", True)
    return rep


def test_overall_and_worst():
    rep = build()
    assert not rep.overall  # "b" fails
    assert rep.worst() == 2e-9
    assert [r.passed for r in rep.records] == [True, False, True, True]


def test_skip_counts_as_pass():
    rep = Report("s", {})
    rep.skip("only", "nothing to do")
    assert rep.overall
    assert rep.records[0].skipped


def test_merge_prefix():
    outer = Report("outer", {})
    outer.merge(build(), prefix="inner/")
    assert outer.records[0].check_id == "inner/a"
    assert len(outer.records) == 4


def test_json_deterministic_and_complete():
    rep = build()
    text1 = rep.to_json()
    text2 = build().to_json()
    assert text1 == text2
    obj = json.loads(text1)
    assert obj["overall"] is False
    assert obj["environment"] == {"trunc": 8}
    rec = obj["records"][0]
    assert set(rec) == {"id", "anchor", "residual", "tolerance", "pass",
                        "skipped", "note"}


def test_summary_lines():
    lines = build().summary_lines()
    assert lines[-1] == "overall: FAIL"
    assert any(line.startswith("[SKIP]") for line in lines)


def test_worst_is_nan_whatever_the_order():
    for residuals in ([0.5, math.nan], [math.nan, 0.5], [math.nan]):
        rep = Report("w", {})
        rep.skip("s", "skipped records do not count")
        for k, res in enumerate(residuals):
            rep.check(f"c{k}", "x = y", res, 1.0)
        assert math.isnan(rep.worst()), residuals
    rep = Report("w", {})
    rep.skip("s", "only a skip")
    assert rep.worst() == 0.0


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e308]
# non-ASCII, control characters, quotes and backslashes in anchors and notes
NASTY_TEXT = "D_{T*} \u2016\u0398\u2016 \u00e9\u0000\u001f\t\n\"\\ \U0001d4d7 \u2028"


def floats():
    return st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)


def environments():
    leaves = floats() | st.integers() | st.booleans() | st.none() | st.text(max_size=6)
    return st.dictionaries(st.text(max_size=6), st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=10), max_size=4)


records = st.builds(CheckRecord, st.text(max_size=8), st.text(max_size=8), floats(),
                    floats(), st.booleans(), st.booleans(), st.text(max_size=8))


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.builds(Report, st.text(max_size=6), environments(),
                     st.lists(records, max_size=5)))
    @example(Report("empty"))
    @example(Report("", {"a": [1, None, [2.5, "x"], {"b": None}], "": {}, "z": [],
                         "m": {"data": [[0.5, -0.0], [math.nan, 1e308]]}}))
    @example(Report("specials", {"n": math.nan},
                    [CheckRecord("f", "a", x, y, True, False, "")
                     for x in SPECIAL_FLOATS for y in SPECIAL_FLOATS]))
    @example(Report(NASTY_TEXT, {NASTY_TEXT: NASTY_TEXT},
                    [CheckRecord(NASTY_TEXT, NASTY_TEXT, 0.0, 0.5, False, True, NASTY_TEXT)]))
    @example(Report("records", {"records": [], "suite": "x", "overall": True}))
    def test_matches_json_dumps(self, rep):
        assert rep.to_json() == json.dumps(rep.to_dict(), indent=2, sort_keys=True)
