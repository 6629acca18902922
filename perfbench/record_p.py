"""Record the interpolation rate ``p`` of every replay cell, per seed.

Usage (from the repository root)::

    python3 perfbench/record_p.py FIRST_SEED LAST_SEED

Writes ``perfbench/table1_p.json``, which ``replay-table1`` checks its
cells against.  Run it only when the benchmark's definition changes.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str]) -> int:
    from perfbench.inproc import RECORDED_P, replay_p_table

    first, last = (int(arg) for arg in argv)
    table = {str(seed): replay_p_table(seed) for seed in range(first, last + 1)}
    RECORDED_P.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} seeds into {RECORDED_P}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
