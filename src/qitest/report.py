"""Result envelopes and serialization.

JSON and CSV renderings write every float with 17 significant digits
(scientific notation), which round-trips IEEE doubles exactly and always
carries more than 12 significant digits. JSON strings are escaped as the JSON
standard requires, and a non-finite float, which JSON cannot hold, raises
QITestError.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__
from .errors import QITestError


def format_float(x: float) -> str:
    """17-significant-digit scientific rendering; exact double round-trip."""
    return f"{x:.16e}"


def _render(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{_render(str(k))}: {_render(v, indent + 2)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{inner}{_render(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, enum.Enum):
        obj = obj.value
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise QITestError(f"cannot write the non-finite float {obj!r} as JSON")
        return format_float(obj)
    if isinstance(obj, (int,)):
        return str(obj)
    return json.dumps(str(obj), ensure_ascii=False)


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars with full-precision floats."""
    return _render(obj) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    """Render a homogeneous list of dicts as CSV (quoted as needed) with full-precision floats."""
    if not rows:
        return ""
    cols = list(rows[0].keys())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([_csv_cell(row[c]) for c in cols] for row in rows)
    return out.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, enum.Enum):
        v = v.value
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


@dataclass
class ReportEnvelope:
    """Everything a run emits: provenance, payload and warnings."""

    command: str
    payload: object
    seeds: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    version: str = __version__

    def to_dict(self) -> dict:
        payload = self.payload
        if hasattr(payload, "to_dict"):
            payload = payload.to_dict()
        return {
            "tool": "qitest",
            "version": self.version,
            "command": self.command,
            "seeds": list(self.seeds),
            "warnings": list(self.warnings),
            "result": payload,
        }

    def to_json(self) -> str:
        return to_json(self.to_dict())


def render_test_result_text(result) -> str:
    """Human-readable block for a single test result."""
    lines = [
        f"kernel pair      : {result.g_kernel.value} / {result.h_kernel.value}",
        f"mode             : {'censored' if result.censored_mode else 'uncensored'}",
        f"n                : {result.n}",
        f"comparable pairs : {result.n_comparable}  (fraction {result.pr_hat:.6g})",
        f"statistic kappa  : {result.kappa_hat:.10g}",
        f"variance piece   : {result.phi_hat:.10g}",
        f"chi-square (1 df): {result.chi_square:.6g}",
        f"p-value          : {result.p_value:.6g}",
    ]
    if result.assumption_3b_required:
        lines.append(
            "note             : this kernel pair additionally requires entry and\n"
            "                   censoring times to be quasi-independent; consider the\n"
            "                   reversed-role diagnostic (run with --reverse and a sign\n"
            "                   exit kernel) before trusting the p-value"
        )
    return "\n".join(lines)
