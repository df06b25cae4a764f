#!/usr/bin/env python3
"""Run every example config in scripts/configs and collect the outputs.

Usage: python3 scripts/run_all.py [outdir]

Each CSV/JSONL output is listed with its sha256, and manifest.json with
the sha256 of the config text it embeds (the manifest as a whole holds the
wall time), so two runs' listings `diff` clean exactly when their outputs
and their rendered configs are byte-identical.
"""

import hashlib
import json
import sys
from pathlib import Path

from specproj.cli import main

CONFIG_DIR = Path(__file__).parent / "configs"


def run_all(out_root: Path) -> int:
    worst = 0
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        kind = cfg.stem
        out_dir = out_root / kind
        print(f"== {kind}: {cfg.name}")
        code = main([kind, "--config", str(cfg), "--out", str(out_dir)])
        if code != 0:
            print(f"   exited with status {code}", file=sys.stderr)
            worst = max(worst, code)
        else:
            for produced in sorted(out_dir.iterdir()):
                line = f"   wrote {produced.name}"
                if produced.suffix in (".csv", ".jsonl"):
                    digest = hashlib.sha256(produced.read_bytes()).hexdigest()
                    line += f" sha256={digest}"
                elif produced.name == "manifest.json":
                    config = json.loads(produced.read_text())["config"]
                    digest = hashlib.sha256(config.encode()).hexdigest()
                    line += f" config_sha256={digest}"
                print(line)
    return worst


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs")
    sys.exit(run_all(root))
