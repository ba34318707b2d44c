"""Schema-versioned BENCH_*.json snapshot reading and writing.

A snapshot is the durable record of one suite run: the schema version,
the calibration time, the numpy version (absent from snapshots written
before it was recorded), and per-scenario semantic + perf metrics.  Writes
go through :func:`repro.ioutil.atomic_write_json`, so a crashed run can
never leave a half-written snapshot for CI to trip over.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigError
from repro.ioutil import atomic_write_json

#: Bump when the snapshot layout changes shape (not when metrics drift).
SCHEMA_VERSION = 1


def write_snapshot(path: str | Path, body: dict) -> Path:
    """Write a suite-run body (from :func:`repro.bench.scenarios.run_suite`)."""
    payload = {"schema_version": SCHEMA_VERSION, **body}
    return atomic_write_json(path, payload, indent=2)


def load_snapshot(path: str | Path) -> dict:
    """Load and validate a snapshot written by :func:`write_snapshot`."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"benchmark snapshot not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"benchmark snapshot {path} is not JSON: {exc}") from exc
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"benchmark snapshot {path} has schema_version={version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("scenarios"), dict):
        raise ConfigError(f"benchmark snapshot {path} has no scenarios table")
    return payload
