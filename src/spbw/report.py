"""Structured run reports: a dataclass mirror of the pipeline outcome that
renders to human text and to a stable machine document.

The machine document round-trips (``Report.from_dict(r.to_dict()) == r``)
and byte-compares against golden files once the timing fields are zeroed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .gkdim import CheckRecord

SCHEMA_ID = "spbw-report/2"


@dataclass
class Report:
    algebra: str
    mode: str | None
    config: dict
    calculus_dimension: int | None
    gk_estimate: int | None
    checks: list
    verdict: str
    failed_check: str | None
    failing: list
    schema: str = SCHEMA_ID

    def check(self, name: str) -> CheckRecord | None:
        for rec in self.checks:
            if rec.name == name:
                return rec
        return None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Report":
        """Inverse of :meth:`to_dict`: the schema requires every field of
        ``Report`` and ``CheckRecord`` and forbids any other."""
        return Report(**{**data, "checks": [CheckRecord(**c) for c in data["checks"]]})

    def to_json(self, zero_timing: bool = False) -> str:
        doc = self.to_dict()
        if zero_timing:
            for c in doc["checks"]:
                c["seconds"] = 0.0
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "Report":
        return Report.from_dict(json.loads(text))

    def human_text(self) -> str:
        lines = [f"algebra: {self.algebra}" + (f"  (mode {self.mode})" if self.mode else "")]
        for c in self.checks:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "--", "error": "ERROR"}[c.status]
            detail = ""
            if c.data:
                detail = "  " + ", ".join(f"{k}={v}" for k, v in sorted(c.data.items()))
            lines.append(f"  {c.name:<22} {mark}{detail}")
            for w in c.witnesses[:3]:
                lines.append(f"      witness: {w}")
        dims = f"calculus dimension {self.calculus_dimension}, growth estimate {self.gk_estimate}"
        lines.append(f"  {dims}")
        lines.append(f"verdict: {self.verdict}" + (f" ({', '.join(self.failing)})" if self.failing else ""))
        return "\n".join(lines) + "\n"
