"""Output writers: CSV, JSONL, and run manifests.

Every write is atomic (temp file in the target directory, then os.replace)
so a crashed run never leaves a truncated table behind.  CSV cells other
than strings are rendered with %.17g, which round-trips IEEE doubles
exactly and writes bools as 1/0 and ints below 1e17 as str does.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, Sequence

FLOAT_FORMAT = "%.17g"


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, text.encode())


def atomic_write_bytes(path: Path, data: bytes) -> None:
    _atomic_write(path, data)


def _atomic_write(path: Path, data: bytes) -> None:
    # private, so a tracer of the public writers charges the I/O to the one
    # that was called (perfbench's reports.write_s reads atomic_write_text)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(",".join([cell if isinstance(cell, str)
                               else FLOAT_FORMAT % cell for cell in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    lines = [json.dumps(record, sort_keys=True) for record in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_manifest(out_dir: Path, config_text: str, outputs: Sequence[str],
                   wall_seconds: float, version: str,
                   metrics: dict) -> None:
    """manifest.json: the config text, the outputs, the run's wall time and,
    under "metrics", what the run measured about itself."""
    manifest = {
        "config": config_text,
        "metrics": metrics,
        "outputs": sorted(outputs),
        "version": version,
        "wall_seconds": wall_seconds,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    atomic_write_text(Path(out_dir) / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
