"""Report primitives and deterministic JSON encoding.

Reports must be byte-identical across identical invocations, so every
container is sorted before serialization and rationals are rendered as
exact ``p/q`` strings (``q`` omitted when 1, matching ``str(Fraction)``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any

SCHEMA_NAME = "report-v1"


@dataclass(frozen=True)
class Finding:
    """One named check inside a report."""

    name: str
    ok: bool
    detail: str = ""


def report(command: str, parameters: dict, outcome: str, details: dict, timing_ms: int | None) -> bytes:
    """The JSON bytes the CLI prints, see schema/report-v1; ``outcome`` is "pass", "fail" or "inconclusive"."""
    payload = {
        "schema": SCHEMA_NAME,
        "command": command,
        "parameters": jsonable(parameters),
        "outcome": outcome,
        "details": jsonable(details),
        "timing_ms": timing_ms,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def jsonable(value: Any) -> Any:
    """Recursively convert report values into JSON-stable primitives."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value if isinstance(value.value, str) else value.name
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(value, (frozenset, set)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return str(value)


def _key(k: Any) -> str:
    if isinstance(k, Enum):
        v = k.value
        return v if isinstance(v, str) else k.name
    return k if isinstance(k, str) else str(k)
