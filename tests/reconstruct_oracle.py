"""Reference enumeration of the 24-curve reconstruction census.

This is the direct search that ``evenlat.reconstruct.reconstruct_24``
replaced by product counting and a split join: every tier-1 solution is
built as a ``bytes`` key and put into a set, and each key is tested
against the 21 affine rank-6 Gram conditions one by one.  The
differential tests compare the two.  The arrangements, E8 embeddings,
block completions, Gram tests and assembly come from the package.
"""

import itertools

from evenlat.reconstruct import (
    _N_ORBITS,
    Reconstruction24,
    ReconstructionError,
    _adjacency,
    _assemble,
    _block_completions,
    _e8_embeddings,
    _hexagon_arrangements,
    _qgram_linear_tests,
    _s_block_valid,
    relations_hold,
)


def reconstruct_24(tier_policy: str = "auto", multiplicity_cap: int = 2) -> Reconstruction24:
    if tier_policy not in ("auto", "1", "2", "3"):
        raise ValueError(f"unknown tier policy: {tier_policy!r}")
    qtests = _qgram_linear_tests()
    tier1_keys = set()
    tier2_keys = set()
    for arrangement in _hexagon_arrangements():
        adjacency = _adjacency(arrangement)
        for _assignment, pinned in _e8_embeddings(adjacency):
            if not _s_block_valid(pinned):
                continue
            blocks = []
            feasible = True
            for g1, g2 in itertools.combinations(range(6), 2):
                adjacent = frozenset((g1, g2)) in adjacency
                comps = _block_completions(g1, g2, adjacent, pinned, multiplicity_cap)
                if not comps:
                    feasible = False
                    break
                blocks.append(comps)
            if not feasible:
                continue
            base = [0] * _N_ORBITS
            for orb, v in pinned.items():
                base[orb] = v
            for choice in itertools.product(*blocks):
                vals = list(base)
                for part in choice:
                    for orb, v in part:
                        vals[orb] = v
                key = bytes(vals)
                tier1_keys.add(key)
                if key not in tier2_keys:
                    if all(
                        sum(c * vals[orb] for orb, c in terms) == rhs
                        for terms, rhs in qtests
                    ):
                        tier2_keys.add(key)
    if not tier1_keys:
        raise ReconstructionError("no solution at tier 1: constraint bug")
    tier2 = tuple(_assemble(key) for key in sorted(tier2_keys))
    tier3 = tuple(g for g in tier2 if relations_hold(g))
    if tier_policy == "auto":
        if len(tier1_keys) == 1:
            used = 1
        elif len(tier2) == 1:
            used = 2
        else:
            used = 3
    else:
        used = int(tier_policy)
    return Reconstruction24(
        len(tier1_keys), tier2, tier3, used, tier_policy, multiplicity_cap
    )
