"""Print the sha256 of each workload's stdout for every D in the pinned set,
as qcbench/pins.json holds them.

Usage, from the root of a checkout: python3 qcbench/pin.py > qcbench/pins.json

Every job runs without an SPF cache, so the warm-k3-cross pin is the output
of the same argv with no cache: a warm run must be byte-identical to it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import D_SET, WORK, WORKLOADS, child_env, cli_argv, spawn


def main() -> int:
    workdir = WORK / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pins: dict[str, dict[str, str]] = {}
    try:
        for name, workload in sorted(WORKLOADS.items()):
            for d in D_SET:
                inv = spawn(cli_argv(workload.cli_args(d)), child_env(None), workdir)
                if inv.exit_code != 0:
                    print(f"{name} D={d}: exit code {inv.exit_code}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(d)] = hashlib.sha256(inv.stdout).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
