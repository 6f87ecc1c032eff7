"""Regenerate candecomp_table.json, the expected canonical decompositions.

The canonical decomposition of a dimension vector is unique, so the table
must not depend on the sampling seed: each vector is decomposed at several
seeds and the script stops on any disagreement.

    PYTHONPATH=src python3 perfbench/make_candecomp_table.py
"""

import json
import sys

from quiverglue import fixtures
from quiverglue.decompose import OracleConfig, canonical_decomposition

from workloads import TABLE_PATH, fmt_vec, sweep_vectors

SEEDS = (0, 1, 2)


def main():
    table = {}
    for quiver_name, v in sweep_vectors():
        quiver = fixtures.load_quiver(quiver_name)
        answers = {
            canonical_decomposition(quiver, v, OracleConfig(seed=s)).summands for s in SEEDS
        }
        if len(answers) != 1:
            sys.exit(f"seeds disagree on {quiver_name} {fmt_vec(v)}: {sorted(answers)}")
        (summands,) = answers
        table.setdefault(quiver_name, {})[fmt_vec(v)] = [[fmt_vec(r), m] for r, m in summands]
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
