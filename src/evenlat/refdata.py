"""Published values from the paper, for the search and the harness.

The data covers Gram matrices, dual-vector coordinates, isotropic class
lists, curve relations, and involution actions for the rank-16
Neron-Severi lattices of the triple-double K3 surface X and its symplectic
quotient X'.  Curve indices are 0-based throughout (R1 -> 0, C1 -> 0).

Some of it drives the reconstruction, as the structure the paper states:
the 24-curve search in ``reconstruct_24`` is built from ``GROUPS_24``, the
three ``IOTA_*`` involutions, ``FIBER_CURVES`` and ``SECTION`` (tier 1),
``Q_BASIS`` and ``Q_GRAM`` (tier 2) and ``RELATION_FAMILIES_24`` (tier 3),
and ``reconstruct_xprime`` builds X' from ``IOTA_011``, ``xprime_labels``,
the half-sum supports ``N_SUPPORT`` and ``LAMBDA*_SUPPORT`` and the
printed basis ``M_BASIS_CURVES``.  The rest is only compared against what
the program computes: ``reconstruct_xprime`` checks ``QUOTIENT_ORBITS``
and ``XPRIME_RELATIONS`` (whose relation-only incidence system it also
reports on), and the verification harness reads everything else.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlinalg import IntMat

F = Fraction

# ---------------------------------------------------------------------------
# the 24-curve side (X)

# deck involutions acting on R1..R24, 0-based images
IOTA_001 = (2, 3, 0, 1, 6, 7, 4, 5, 8, 9, 10, 11, 14, 15, 12, 13, 18, 19, 16, 17, 20, 21, 22, 23)
IOTA_010 = (1, 0, 3, 2, 4, 5, 6, 7, 10, 11, 8, 9, 13, 12, 15, 14, 16, 17, 18, 19, 22, 23, 20, 21)
IOTA_011 = (3, 2, 1, 0, 6, 7, 4, 5, 10, 11, 8, 9, 15, 14, 13, 12, 18, 19, 16, 17, 22, 23, 20, 21)

# components over a common (-1)-curve; internally disjoint
GROUPS_24 = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15), (16, 17, 18, 19), (20, 21, 22, 23))

# basis of the hyperbolic-plus-E8 block: R1 R5 R9 R13 R17 R23 R4 R15 R8 R3
S_BASIS = (0, 4, 8, 12, 16, 22, 3, 14, 7, 2)
FIBER_CURVES = (0, 4, 8, 12, 16, 22, 3, 14, 7)  # S_BASIS without the section R3
SECTION = 2  # R3

# elliptic fiber class 2R1+2R4+4R5+R8+6R9+5R13+3R15+4R17+3R23
FIBER_VECTOR = {0: 2, 3: 2, 4: 4, 7: 1, 8: 6, 12: 5, 14: 3, 16: 4, 22: 3}

# basis of the rank-6 orthogonal block Q, as integer vectors over R1..R24
Q_BASIS_VECTORS = (
    {15: 1},                              # R16
    {13: 1, 20: -1, 21: 1},               # R14 - R21 + R22
    {10: 1, 1: -1, 18: 1, 19: -1},        # R11 - R2 + R19 - R20
    {16: 1, 13: 2, 17: -1, 18: -1, 19: 1},  # R17 + 2R14 - R18 - R19 + R20
    {11: 1, 9: -1, 17: 1, 19: 1},         # R12 - R10 + R18 + R20
    {2: 1, 21: 2, 5: -2, 11: -1},         # R3 + 2R22 - 2R6 - R12
)
# the same vectors as the rows of a 6 x 24 integer matrix
Q_BASIS = IntMat.from_rows([[qv.get(i, 0) for i in range(24)] for qv in Q_BASIS_VECTORS])

Q_GRAM = IntMat.from_rows([
    [-2, 0, 1, 0, 2, -1],
    [0, -6, -1, -4, 4, -5],
    [1, -1, -8, 6, 2, 0],
    [0, -4, 6, -16, 4, -2],
    [2, 4, 2, 4, -8, 6],
    [-1, -5, 0, -2, 6, -12],
])

# generators of the discriminant group of Q, in Q-basis coordinates
V1_Q = (F(1, 2), F(-1, 2), 0, 0, F(1, 2), 0)
V2_Q = (F(-1, 2), F(1, 2), 0, 0, 0, 0)
W1_Q = (F(1, 2), 0, 0, F(-1, 4), 0, 0)
W2_Q = (0, 0, F(1, 4), F(-1, 4), F(-1, 4), F(-1, 4))

# dual pairing table on (v1, v2, w1, w2), pre-reduction
PAIRING_TABLE_Q = (
    (F(-5), F(5, 2), F(-1), F(-1, 2)),
    (F(5, 2), F(-2), F(1), F(1, 2)),
    (F(-1), F(1), F(-3, 2), F(-5, 4)),
    (F(-1, 2), F(1, 2), F(-5, 4), F(-11, 4)),
)

# the seven nonzero isotropic classes of A_Q, as (v1, v2, w1, w2) exponents
ISOTROPIC_AQ = (
    (0, 0, 2, 0),   # 2w1
    (0, 1, 0, 0),   # v2
    (0, 1, 2, 0),   # v2 + 2w1
    (1, 0, 0, 2),   # v1 + 2w2
    (1, 0, 2, 2),   # v1 + 2w1 + 2w2
    (1, 1, 0, 0),   # v1 + v2
    (1, 1, 2, 0),   # v1 + v2 + 2w1
)

# half-sum representatives of those classes (0-based curve index sets)
HALFSET_AQ = {
    (0, 0, 2, 0): (16, 17, 18, 19),                          # (R17+R18+R19+R20)/2
    (0, 1, 0, 0): (13, 15, 20, 21),                          # (R14+R16+R21+R22)/2
    (0, 1, 2, 0): (13, 15, 16, 17, 18, 19, 20, 21),          # alpha
    (1, 0, 0, 2): (1, 2, 10, 11, 13, 15, 16, 17, 20, 21),    # beta
    (1, 0, 2, 2): (1, 2, 10, 11, 13, 15, 18, 19, 20, 21),    # gamma
    (1, 1, 0, 0): (9, 11, 17, 19),                           # (R10+R12+R18+R20)/2
    (1, 1, 2, 0): (9, 11, 16, 18),                           # (R10+R12+R17+R19)/2
}

# 2-divisible curve relations: R13+R14+R17+R18 = R15+R16+R19+R20 and
# R11+R12+R14+R16 = R1+R3+R21+R22
RELATION_FAMILIES_24 = (
    (12, 13, 16, 17, 14, 15, 18, 19),
    (10, 11, 13, 15, 0, 2, 20, 21),
)

# splitting basis: U part is (fiber, R3); E8 part is the fiber curves
# other than R8; the Q part is Q_BASIS_VECTORS
U_E8_Q_E8_PART = (0, 4, 8, 12, 16, 22, 3, 14)

# the transcendental lattice of X and the abstract shape of its q
T_X_EXPR = "U+U(2)+diag(-4,-4)"

# change of generators exhibiting the block form of q on A_{NS(X)}:
# v2, v1+v2+2w1, v1+2w1-w2, v1+w1-w2 as (v1, v2, w1, w2) exponents
PROP44_BASIS = ((0, 1, 0, 0), (1, 1, 2, 0), (1, 0, 2, 3), (1, 0, 1, 3))
PROP44_Q_DIAG = (F(0), F(0), F(1, 4), F(1, 4))
PROP44_B_OFFDIAG = {(0, 1): F(1, 2)}  # all other off-diagonal pairs are 0

# obstruction data for the symplectic-action exclusions
OMEGA_Z23_PERP_EXPR = "U(2)+U(2)+U(2)+diag(-4,-4)"
M_Z23_PERP_EXPR = "diag(2,2)+U(2)+diag(-2,-2,-2,-2)"
SQUARE_TWO_VECTOR = (1, 1, 0, 0, 0, 0)  # in U+U(2)+diag(-4,-4)
ODD_PAIRING_VECTORS = ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))  # x.y = 1 in U

# Kummer specialization arithmetic: alpha, beta span diag(4,4) primitively
KM_ALPHA = (1, 2, 0, 0, 0, 0)
KM_BETA = (0, 0, 1, 1, 0, 0)

# ---------------------------------------------------------------------------
# the quotient side (X')

# orbits of iota_011 in printed order: C1 <- {R1,R4}, C2 <- {R2,R3}, ...
QUOTIENT_ORBITS = (
    (0, 3), (1, 2), (4, 6), (5, 7), (8, 10), (9, 11),
    (12, 15), (13, 14), (16, 18), (17, 19), (20, 22), (21, 23),
)

# curve labels on X': C1..C12 then N1..N8 (0-based indices 0..19)
def xprime_labels() -> tuple[str, ...]:
    return tuple(f"C{i + 1}" for i in range(12)) + tuple(f"N{i + 1}" for i in range(8))


# the half-sum generators of M beyond the 20 curves (0-based index sets)
N_SUPPORT = tuple(range(12, 20))                      # (N1+...+N8)/2
LAMBDA1_SUPPORT = (4, 5, 8, 9, 12, 13, 14, 15)        # (C5+C6+C9+C10+N1+N2+N3+N4)/2
LAMBDA2_SUPPORT = (0, 1, 4, 5, 12, 13, 16, 17)        # (C1+C2+C5+C6+N1+N2+N5+N6)/2

# Z-basis of M: C1 C2 C3 C4 C5 C7 C8 C9 N1 N2 N3 N5 N7 N Lambda1 Lambda2
M_BASIS_CURVES = (0, 1, 2, 3, 4, 6, 7, 8, 12, 13, 14, 16, 18)

# the seven relations expressing the remaining generators in the basis:
# each maps a generator index (0..19 curves, 20=N, 21=L1, 22=L2) to its
# integer combination over the 23 generators
XPRIME_RELATIONS = (
    # C6 = C3 - C4 + C5
    (5, {2: 1, 3: -1, 4: 1}),
    # C10 = C1 + C2 + C3 + C4 - C7 - C8 - C9
    (9, {0: 1, 1: 1, 2: 1, 3: 1, 6: -1, 7: -1, 8: -1}),
    # C11 = C3 + C5 - C9
    (10, {2: 1, 4: 1, 8: -1}),
    # C12 = -C1 - C2 - C4 + C5 + C7 + C8 + C9
    (11, {0: -1, 1: -1, 3: -1, 4: 1, 6: 1, 7: 1, 8: 1}),
    # N4 = -C1 - C2 - 2C3 - 2C5 + C7 + C8 - N1 - N2 - N3 + 2*Lambda1
    (15, {0: -1, 1: -1, 2: -2, 4: -2, 6: 1, 7: 1, 12: -1, 13: -1, 14: -1, 21: 2}),
    # N6 = -C1 - C2 - C3 + C4 - 2C5 - N1 - N2 - N5 + 2*Lambda2
    (17, {0: -1, 1: -1, 2: -1, 3: 1, 4: -2, 12: -1, 13: -1, 16: -1, 22: 2}),
    # N8 = 2C1 + 2C2 + 3C3 - C4 + 4C5 - C7 - C8 + N1 + N2 - N7 + 2N - 2L1 - 2L2
    (19, {0: 2, 1: 2, 2: 3, 3: -1, 4: 4, 6: -1, 7: -1, 12: 1, 13: 1, 18: -1, 20: 2, 21: -2, 22: -2}),
)

# 2-divisible families on X' used by the even-four reductions: the three
# printed curve relations plus the half-sum generators N, Lambda1, Lambda2
XPRIME_RELATION_FAMILIES = (
    (0, 1, 2, 3, 6, 7, 8, 9),      # C1+C2+C3+C4 = C7+C8+C9+C10
    (0, 1, 10, 11, 4, 5, 6, 7),    # C1+C2+C11+C12 = C5+C6+C7+C8
    (2, 4, 3, 5),                  # C3+C5 = C4+C6
    (2, 4, 8, 10),                 # C3+C5 = C9+C11
    (2, 4, 9, 11),                 # C3+C5 = C10+C12
    N_SUPPORT,
    LAMBDA1_SUPPORT,
    LAMBDA2_SUPPORT,
)

# generators of the discriminant group of M = NS(X'), in M-basis coords:
# the non-integral rows of the published dual basis
V1_M = {9: F(1, 2), 10: F(-1, 2), 11: F(-1, 2), 12: F(-1, 2)}
V2_M = {8: F(1, 2), 10: F(-1, 2), 11: F(-1, 2), 12: F(-1, 2)}
V3_M = {4: F(1, 2), 7: F(-1, 2), 11: F(-1, 2), 12: F(-1, 2)}
V4_M = {2: F(1, 2), 3: F(-1, 2)}
W1_M = {5: F(1, 4), 6: F(-1, 4), 7: F(-1, 2), 10: F(-1, 2), 12: F(-1, 2)}
W2_M = {0: F(1, 4), 1: F(-1, 4), 3: F(-1, 2), 10: F(-1, 2), 12: F(-1, 2)}

# basis change exhibiting the block form: v1, v2, v4+2w2, v3+v4, w1, w2
SECTION6_BASIS = (
    ((1, 0, 0, 0, 0, 0), 2),
    ((0, 1, 0, 0, 0, 0), 2),
    ((0, 0, 0, 1, 0, 2), 2),
    ((0, 0, 1, 1, 0, 0), 2),
    ((0, 0, 0, 0, 1, 0), 4),
    ((0, 0, 0, 0, 0, 1), 4),
)
SECTION6_Q_DIAG = (F(0), F(0), F(0), F(0), F(1, 4), F(1, 4))
SECTION6_B_OFFDIAG = {(0, 1): F(1, 2), (2, 3): F(1, 2)}

T_XPRIME_EXPR = "U(2)+U(2)+diag(-4,-4)"

# the printed isotropic half-sum representatives in A_M (0-based curve sets;
# indices 0..11 are C1..C12, 12..19 are N1..N8)
ISOTROPIC_AM_HALFSETS = (
    (0, 1, 6, 7),
    (0, 1, 2, 3),
    (2, 3, 6, 7),
    (4, 8, 16, 18),
    (12, 14, 16, 18),
    (4, 8, 12, 14),
    (13, 14, 16, 18),
    (4, 8, 13, 14),
    (0, 1, 12, 13),
    (6, 7, 12, 13),
    (2, 3, 12, 13),
    (2, 3, 4, 8, 16, 18),
    (2, 3, 4, 8, 12, 14),
    (2, 3, 4, 8, 13, 14),
    (0, 1, 4, 6, 7, 8, 16, 18),
    (0, 1, 6, 7, 12, 14, 16, 18),
    (0, 1, 2, 3, 12, 14, 16, 18),
    (2, 3, 6, 7, 12, 14, 16, 18),
    (0, 1, 4, 6, 7, 8, 12, 14),
    (0, 1, 6, 7, 13, 14, 16, 18),
    (0, 1, 2, 3, 13, 14, 16, 18),
    (2, 3, 6, 7, 13, 14, 16, 18),
    (0, 1, 4, 6, 7, 8, 13, 14),
    (0, 1, 2, 3, 6, 7, 12, 13),
    (0, 1, 4, 8, 12, 13, 16, 18),
    (4, 6, 7, 8, 12, 13, 16, 18),
    (0, 1, 2, 3, 4, 6, 7, 8, 16, 18),
    (0, 1, 2, 3, 4, 6, 7, 8, 12, 14),
    (0, 1, 2, 3, 4, 6, 7, 8, 13, 14),
    (0, 1, 2, 3, 4, 8, 12, 13, 16, 18),
    (2, 3, 4, 6, 7, 8, 12, 13, 16, 18),
)

# embedding check for Prop 6.2(i): diag(-4,-4) inside U(2)+diag(-8)
P62_AMBIENT_EXPR = "U(2)+diag(-8)"
P62_GENS = ((1, 1, 1), (-1, 1, 0))


# ---------------------------------------------------------------------------
# expected values of the report entries


def report_pairs(b_off) -> dict:
    """b values keyed by 0-based pairs (i, j), rekeyed "i,j" from 1 for the report."""
    return {f"{i + 1},{j + 1}": v for (i, j), v in b_off.items()}


# result id -> {witness name: value}; an entry passes exactly when each of
# these equals the checker's witness of the same name.  Checkers read this
# table when they run.
EXPECTED = {
    "reconstruction_24": {"entry_bound": 4, "selected_solutions": 1},
    "lemma_3_1": {
        "S_det": -1,
        "S_signature": (1, 9, 0),
        "S_even": True,
        "S_dot_Q": "all zero",
        "Q_gram": Q_GRAM,
    },
    "lemma_4_1": {
        "snf_diagonal": (F(1), F(1), F(1, 2), F(1, 2), F(1, 4), F(1, 4)),
        "transform_identity": True,
        "invariant_factors": (2, 2, 4, 4),
        "order": 64,
        "det": 64,
    },
    "lemma_4_2": {
        "pairing_table": PAIRING_TABLE_Q,
        "isotropic_count": 7,
        "printed_is_whole_set": True,
    },
    "thm_4_3": {
        "s_plus_q_index": 1,
        "classes_without_certificate": (),
        "subgroups_without_certified_class": (),
        "splitting": {
            "basis": True,
            "block_diagonal": True,
            "u_block_hyperbolic": True,
            "e8_block_is_e8": True,
            "q_block_printed": True,
        },
        "ns_invariant_factors": (2, 2, 4, 4),
    },
    "prop_4_4": {
        "even": True,
        "signature": (2, 4, 0),
        "disc_isomorphic": True,
        "rank_bound": True,
        "block_q_diag": PROP44_Q_DIAG,
        "block_b_offdiag": report_pairs(PROP44_B_OFFDIAG),
        "uniqueness_predicate": True,
    },
    # the images of the branch points s, -s, -1/s, 1/s are 0, s^2,
    # (1+s^2)^2/4 and infinity, in the canonical rendering of a reduced
    # rational function
    "thm_4_5_mobius": {"images": ("0", "s^2", "1/4 + 1/2*s^2 + 1/4*s^4", "INFINITY")},
    "km_embedding": {"gram": IntMat.diagonal([4, 4]), "snf_invariant_factors": (1, 1)},
    "prop_4_6": {
        "square": F(2),
        "norm_gcd_omega_perp": 4,
        "m_z23_rank": 14,
        "m_z23_invariant_factors": (2,) * 8,
        "m_z23_negative_definite": True,
        # the complement of a rank-14 negative definite block in signature (3, 19)
        "perp_candidate_signature": (3, 5),
        "perp_candidate_l": 8,
        "perp_disc_isomorphic": True,
        "scale_gcd_perp": 2,
        "odd_pairing_in_tx": F(1),
    },
    "section_6": {
        # the entries 1/e_i, e_i the invariant factors of the Gram of M
        "snf_diagonal": (F(1),) * 10 + (F(1, 2),) * 4 + (F(1, 4),) * 2,
        "disc_invariant_factors": (2, 2, 2, 2, 4, 4),
        "block_q_diag": SECTION6_Q_DIAG,
        "block_b_offdiag": report_pairs(SECTION6_B_OFFDIAG),
        "isotropic_count": 31,
        "halfsets_without_certificate": (),
        "printed_equals_isotropic_set": True,
        "even_eight_half_sum_in_lattice": True,
        "even_eight_certificate": None,
        "t_xprime_even": True,
        "t_xprime_signature": (2, 4, 0),
        "t_xprime_disc_isomorphic": True,
    },
    "prop_6_2": {"gram": IntMat.diagonal([-4, -4]), "snf_invariant_factors": (1, 1)},
}
