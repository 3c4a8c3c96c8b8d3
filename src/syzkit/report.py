"""Structured report documents: machine-readable JSON with stable field names
plus a human summary.  Every certified claim carries its certificate kind."""

import json
from fractions import Fraction


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, bool, str)) or value is None:
        return value
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _jsonable(to_dict())
    return str(value)


class ReportDocument:
    """Key-value report with certificates; no claim without a certificate kind."""

    def __init__(self, command, budget=None):
        self.command = command
        self.budget = budget
        self.results = {}
        self.certificates = []
        self.status = "complete"
        self.notes = []

    def add_result(self, key, value):
        self.results[key] = value

    def add_certificate(self, claim, kind, detail=None):
        self.certificates.append({"claim": claim, "kind": kind,
                                  "detail": _jsonable(detail)})

    def mark_open(self, note=None):
        self.status = "open-at-budget"
        if note:
            self.notes.append(note)

    def to_dict(self):
        return {
            "tool": "syzkit",
            "command": self.command,
            "budget": self.budget,
            "status": self.status,
            "results": _jsonable(self.results),
            "certificates": self.certificates,
            "notes": self.notes,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def human_summary(self):
        lines = [f"[{self.command}] status: {self.status}"]
        for key, value in self.results.items():
            lines.append(f"  {key}: {_render(value)}")
        for cert in self.certificates:
            lines.append(f"  certificate[{cert['kind']}]: {cert['claim']}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _render(value):
    v = _jsonable(value)
    if isinstance(v, (dict, list)):
        return json.dumps(v)
    return str(v)
