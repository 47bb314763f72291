"""Report documents: the single output shape of every CLI command.

A report carries the command, its canonicalized inputs, the verdicts,
any witnesses needed to recheck them by hand, and a provenance label
per verdict (``computed``, ``asserted``, or ``by-equivalence``).  The
JSON form sorts keys and leaves timing at null unless explicitly
requested, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field

PROVENANCE_LABELS = ("computed", "asserted", "by-equivalence")


@dataclass
class ReportDocument:
    command: str
    inputs: dict = dc_field(default_factory=dict)
    verdicts: dict = dc_field(default_factory=dict)
    witnesses: dict = dc_field(default_factory=dict)
    provenance: dict = dc_field(default_factory=dict)
    timing_ms: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"input {key}: {_scalar(self.inputs[key])}")
        for key in sorted(self.verdicts):
            prov = self.provenance.get(key)
            suffix = f"  [{prov}]" if prov else ""
            lines.append(f"{key}: {_scalar(self.verdicts[key])}{suffix}")
        for key in sorted(self.witnesses):
            lines.append(f"witness {key}: {_scalar(self.witnesses[key])}")
        if self.timing_ms is not None:
            lines.append(f"timing_ms: {self.timing_ms}")
        return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)
