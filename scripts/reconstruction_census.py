#!/usr/bin/env python3
"""Full reconstruction census for the 24-curve configuration.

Runs the tiered search once, over every entry the block totals allow,
prints census sizes per tier and how many hexagon arrangements the
parity count leaves to search, validates every tier-2 solution, and
cross-checks the result against the branched double-cover pullback of
the hexagon.  Exits 0 exactly when tier 3 holds a single solution.
"""

import argparse
import sys
import time

from evenlat.curves import present, triple_double_tower
from evenlat.lattice import Lattice, discriminant_group
from evenlat.reconstruct import (
    _hexagon_arrangements,
    _shape_arrangements,
    q_gram_of,
    reconstruct_24,
    relations_hold,
)
import evenlat.refdata as rd


def _ms(start: float) -> str:
    return f"{1000 * (time.perf_counter() - start):.0f} ms"


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    t0 = time.perf_counter()
    rec = reconstruct_24()
    sizes = rec.census_sizes()
    print(f"reconstruction ({_ms(t0)})")
    print(f"  census: tier1={sizes['tier1']} tier2={sizes['tier2']} tier3={sizes['tier3']}")
    print(f"  hexagon arrangements searched: {len(_shape_arrangements())} "
          f"of {len(list(_hexagon_arrangements()))}")

    for k, gram in enumerate(rec.tier2):
        q_gram = q_gram_of(gram)
        q_ok = q_gram.entries == rd.Q_GRAM.entries
        r_ok = relations_hold(gram)
        disc = discriminant_group(Lattice(q_gram)).invariant_factors
        print(f"  tier-2 solution {k}: rank-6 block printed={q_ok} "
              f"relations={r_ok} disc={disc}")

    tower = triple_double_tower()
    shapes = []
    for opt in tower.final.options:
        lat = present(opt.config).lattice
        shapes.append((lat.rank, lat.det))
    good = shapes.count((16, -64))
    print(f"  hexagon pullback census: {len(tower.final.options)} sheet assignments, "
          f"{good} with the rank-16 determinant -64 shape")
    if len(rec.tier3) == 1:
        print("  tier-3 solution is unique; verification may proceed")
        return 0
    print("  tier-3 census is ambiguous; inspect before use")
    return 1


if __name__ == "__main__":
    sys.exit(main())
