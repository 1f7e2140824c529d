"""Structured pass/fail reports shared by all verification suites.

A report is a flat list of checks, each carrying a stable id, the identity
being tested (as a human-readable formula string), the measured residual and
its tolerance.  Reports serialize deterministically so repeated runs on the
same input are byte-identical.

Every JSON document the CLI writes comes from `dumps` here: reports through
`Report.to_json`, pairs, tuples and triples through `dumps` itself.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte.

    With `indent` set, `json` uses its pure-Python encoder, which spends
    several times the cost of `float.__repr__` on every float.  So lists of
    [re, im] float pairs (the `matrix_to_json` payloads) are written by one
    join over `float.__repr__`; every other value goes through `json`."""
    return _dumps(obj, "")


# what json writes for the non-finite floats, in place of float.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj, indent: str) -> str:
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = (f"{inner}{json.dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(obj) is list and obj:
        if (set(map(type, obj)) == {list} and set(map(len, obj)) == {2}
                and set(map(type, itertools.chain.from_iterable(obj))) == {float}):
            return _float_pairs(obj, indent)
        return "[\n" + ",\n".join(inner + _dumps(x, inner) for x in obj) + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _float_pairs(pairs: list, indent: str) -> str:
    inner, leaf = indent + "  ", indent + "    "
    texts = list(map(float.__repr__, itertools.chain.from_iterable(pairs)))
    # finite reprs are digits, '.', 'e' and signs; only nan and inf spell an 'n'
    if "n" in "".join(texts):
        texts = [_NON_FINITE.get(t, t) for t in texts]
    it = iter(texts)
    body = f"\n{inner}],\n{inner}[\n{leaf}".join(map(f",\n{leaf}".join, zip(it, it)))
    return f"[\n{inner}[\n{leaf}{body}\n{inner}]\n{indent}]"


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _bool(x: bool) -> str:
    return "true" if x else "false"


# one CheckRecord as `dumps` writes it inside the "records" list; the keys are
# in sorted order
_RECORD = ('    {{\n      "anchor": {},\n      "id": {},\n      "note": {},\n'
           '      "pass": {},\n      "residual": {},\n      "skipped": {},\n'
           '      "tolerance": {}\n    }}')


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }


@dataclass
class Report:
    suite: str
    environment: dict = field(default_factory=dict)
    records: list[CheckRecord] = field(default_factory=list)

    def check(self, check_id: str, anchor: str, residual: float,
              tolerance: float, note: str = "") -> bool:
        """Record one residual-vs-tolerance check and return whether it passed."""
        ok = bool(residual <= tolerance)
        self.records.append(CheckRecord(check_id, anchor, float(residual),
                                        float(tolerance), ok, note=note))
        return ok

    def require(self, check_id: str, anchor: str, condition: bool,
                note: str = "") -> bool:
        """Record a boolean check (residual 0/1 against tolerance 0.5)."""
        res = 0.0 if condition else 1.0
        self.records.append(CheckRecord(check_id, anchor, res, 0.5,
                                        bool(condition), note=note))
        return bool(condition)

    def skip(self, check_id: str, anchor: str, note: str = "") -> None:
        """Record an expected skip; counts as a pass for the overall status."""
        self.records.append(CheckRecord(check_id, anchor, 0.0, 0.0, True,
                                        skipped=True, note=note))

    def merge(self, other: "Report", prefix: str = "") -> None:
        for rec in other.records:
            cid = f"{prefix}{rec.check_id}" if prefix else rec.check_id
            self.records.append(CheckRecord(cid, rec.anchor, rec.residual,
                                            rec.tolerance, rec.passed,
                                            rec.skipped, rec.note))

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def worst(self) -> float:
        """Largest residual of the records not skipped, 0 if there are none;
        NaN if any of them is NaN, whatever the record order."""
        live = [r.residual for r in self.records if not r.skipped]
        return math.nan if any(map(math.isnan, live)) else max(live, default=0.0)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        """`dumps(self.to_dict())`, byte for byte, with every record written
        through one template instead of the pure-Python `json` encoder."""
        records = ",\n".join(
            _RECORD.format(_quote(r.anchor), _quote(r.check_id), _quote(r.note),
                           _bool(r.passed), _float(r.residual), _bool(r.skipped),
                           _float(r.tolerance))
            for r in self.records)
        records = f"[\n{records}\n  ]" if records else "[]"
        return (f'{{\n  "environment": {_dumps(self.environment, "  ")},\n'
                f'  "overall": {_bool(self.overall)},\n'
                f'  "records": {records},\n'
                f'  "suite": {_quote(self.suite)}\n}}')

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            lines.append(f"[{status}] {r.check_id}: residual={r.residual:.3e} "
                         f"tol={r.tolerance:.3e}  ({r.anchor})")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return lines
