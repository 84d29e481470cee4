"""Machine- and human-readable run reports.

Every CLI invocation produces a :class:`Report`: the tool name and version,
the input (a source tag plus a sha256 digest of its canonical spec text),
the per-check results, an optional command-specific data payload, and the
resulting exit status.  ``to_json`` output is schema-stable and validates
against ``schema/report-v1.json``; ``to_text`` output is deterministic
(fixed line order, sorted data keys) so runs can be diffed.

:class:`CheckResult` is the one result type of every verifier (axioms,
identities, deformation laws, the theorem) and of the CLI.  The witness
rule lives here too: a residual check fails on the first nonzero
(index, value) entry in the given order (``first_nonzero``), and its
witness labels that index with the basis labels, ``<what> at (e1,e2): v``
(``residual_check``).

Exit-code contract: 0 means every check passed, 1 means at least one
mathematical check failed (with witnesses in the report), 2 means the input
could not be processed at all (parse, schema, or usage error).  A
mathematical failure never maps to 2 and an input error never maps to 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

TOOL_NAME = "ppst"
TOOL_VERSION = "0.1.0"  # the one version literal; pyproject.toml reads it

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_STATUS_BY_EXIT = {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_ERROR: "error"}


def digest_text(text: str) -> str:
    """The sha256 digest tag of a canonical spec text."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail result with an optional witness and details."""

    name: str
    passed: bool
    witness: str | None = None
    details: Mapping[str, str] | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = dict(sorted(self.details.items()))
        return out


def first_nonzero(entries: Iterable[tuple]) -> tuple | None:
    """The first (index, value) pair whose value is nonzero, or None."""
    return next(((idx, v) for idx, v in entries if v), None)


def residual_check(name: str, entries: Iterable[tuple], labels: Sequence[str],
                   what: str = "residual") -> CheckResult:
    """Pass when every value is zero; else witness the first nonzero entry."""
    bad = first_nonzero(entries)
    if bad is None:
        return CheckResult(name, True)
    idx, value = bad
    args = ",".join(labels[i] for i in idx)
    return CheckResult(name, False, witness=f"{what} at ({args}): {value}")


@dataclass
class Report:
    """The result of one command run against one structure."""

    command: str
    source: str
    digest: str
    checks: list[CheckResult] = field(default_factory=list)
    data: dict | None = None
    error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return EXIT_ERROR
        if all(c.passed for c in self.checks):
            return EXIT_PASS
        return EXIT_FAIL

    @property
    def status(self) -> str:
        return _STATUS_BY_EXIT[self.exit_code]

    def to_dict(self) -> dict:
        out: dict = {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "command": self.command,
            "input": {"source": self.source, "digest": self.digest},
            "status": self.status,
            "exit_code": self.exit_code,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.data is not None:
            out["data"] = self.data
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"tool: {TOOL_NAME} {TOOL_VERSION}",
            f"command: {self.command}",
            f"input: {self.source}",
            f"digest: {self.digest}",
            f"status: {self.status}",
        ]
        if self.error is not None:
            lines.append(f"error: {self.error}")
        for c in self.checks:
            lines.append(f"check {c.name}: {'pass' if c.passed else 'fail'}")
            if c.witness is not None:
                lines.append(f"  witness: {c.witness}")
            for key, value in sorted((c.details or {}).items()):
                lines.append(f"  {key}: {value}")
        for key, value in sorted(_flatten(self.data or {})):
            lines.append(f"data {key}: {value}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


def _flatten(data: Mapping, prefix: str = "") -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.extend(_flatten(value, prefix=f"{path}."))
        elif isinstance(value, bool):
            out.append((path, "true" if value else "false"))
        elif isinstance(value, (list, tuple)):
            out.append((path, ", ".join(str(v) for v in value)))
        else:
            out.append((path, str(value)))
    return out


def error_report(command: str, source: str, message: str,
                 digest: str = "sha256:" + "0" * 64) -> Report:
    """A report for input that could not be processed (exit code 2)."""
    return Report(command, source, digest, error=message)
