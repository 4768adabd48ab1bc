"""Count the violations each grid check finds at prior grid 101 and print them as JSON.

The benchmark runs this once per source tree, outside the timed runs, and
compares the counts with ``GUARD_EXPECTED`` in ``run.py``: every check of
``ALL_CHECKS`` finds none, and the known-false ``mirrored_no_divergence``
claim keeps all of its violations.  A fast path that drops violations then
fails the benchmark instead of looking faster.

    PYTHONPATH=src python3 perfbench/guard.py
"""

import json

from secondlook.oracle import ALL_CHECKS, default_prior_grid, grid_theorem_check

GUARD_GRID = 101

if __name__ == "__main__":
    priors = default_prior_grid(GUARD_GRID)
    counts = {
        check: len(grid_theorem_check(check, priors=priors))
        for check in (*ALL_CHECKS, "mirrored_no_divergence")
    }
    print(json.dumps(counts))
