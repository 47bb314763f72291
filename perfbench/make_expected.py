"""Record the outputs the benchmark checks against, from the current source.

    python3 perfbench/make_expected.py

Run from the root of a checkout whose verdicts are trusted.  It writes
``expected/cli_stdout.json`` (the byte-exact stdout of every
``cli-sessions`` call) and ``expected/gb_cyclic5.json`` (digests of the
reduced grevlex bases of cyclic-5).  A change that alters either on
purpose must regenerate them in a change of its own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import CLI_CALLS, EXPECTED_CLI, HERE, call_key, child_env, spawn


def main() -> int:
    root = Path.cwd().resolve()
    env = child_env(root)
    stdout = {}
    for argv in CLI_CALLS:
        child = spawn([sys.executable, "-m", "ringgraph", *argv], root, env)
        if child.code != 0:
            print(f"{call_key(argv)}: exit {child.code}: {child.stderr.strip()}", file=sys.stderr)
            return 1
        stdout[call_key(argv)] = child.stdout
    EXPECTED_CLI.write_text(json.dumps(stdout, indent=1, sort_keys=True) + "\n")

    sys.path.insert(0, str(root / "src"))
    import ringgraph as rg
    from worker import basis_digest, cyclic, cyclic5_rings

    digests = {
        label: basis_digest(rg.buchberger(cyclic(ring), order=rg.GREVLEX, ring=ring))
        for label, ring in cyclic5_rings().items()
    }
    (HERE / "expected" / "gb_cyclic5.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
