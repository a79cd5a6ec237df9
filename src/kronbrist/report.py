"""Structured scenario reports: a deterministic JSON document plus a
human-readable table.

Serialized reports are byte-identical across runs with the same
configuration: checks are sorted by name, JSON keys are sorted, and wall
time is deliberately kept out of both renderings (the CLI prints elapsed
time to stderr instead).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

SCHEMA = "kronbrist-report/1"


def jsonable(value):
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class Check:
    """One verified claim; passes exactly when expected equals computed."""

    name: str
    claim: str
    expected: object
    computed: object
    details: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return jsonable(self.expected) == jsonable(self.computed)


@dataclass
class Report:
    scenario: str
    config: dict
    version: str
    checks: list
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list:
        return sorted(self.checks, key=lambda c: c.name)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "config": jsonable(self.config),
            "version": self.version,
            "passed": self.passed,
            "counts": {
                "total": len(self.checks),
                "failed": sum(1 for c in self.checks if not c.passed),
            },
            "checks": [
                {
                    "name": c.name,
                    "claim": c.claim,
                    "expected": jsonable(c.expected),
                    "computed": jsonable(c.computed),
                    "pass": c.passed,
                    **({"details": jsonable(c.details)} if c.details else {}),
                }
                for c in self.sorted_checks()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        rows = []
        name_w = max([len(c.name) for c in self.checks] + [len("check")])
        header = f"{'check':<{name_w}}  {'status':<6}  expected / computed"
        rows.append(header)
        rows.append("-" * len(header))
        for c in self.sorted_checks():
            status = "PASS" if c.passed else "FAIL"
            exp = json.dumps(jsonable(c.expected), sort_keys=True)
            got = json.dumps(jsonable(c.computed), sort_keys=True)
            cell = exp if c.passed else f"{exp} / {got}"
            rows.append(f"{c.name:<{name_w}}  {status:<6}  {cell}")
        failed = sum(1 for c in self.checks if not c.passed)
        rows.append("-" * len(header))
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(jsonable(self.config).items()))
        rows.append(f"scenario {self.scenario} [{cfg}]")
        rows.append(f"{len(self.checks)} checks, {failed} failed: "
                    + ("PASS" if failed == 0 else "FAIL"))
        return "\n".join(rows) + "\n"
