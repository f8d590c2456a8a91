"""The merged inclusion-exclusion engine against a raw 2^r enumeration.

The oracle lists every nonempty subfamily of path sets with its sign, the
way the expansions were first built.  A joint term is one subfamily per
structure; each coordinate goes to the variable of the last structure
(the system) whose union contains it, else to the one before, and so on.
Terms are merged over equal keys with zero coefficients dropped, in the
engine's order: (set size, mask) for one lifetime, sorted key tuples for
joint expansions.
"""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syspredict import (
    BivariateDistortion,
    EarlyFailurePredictor,
    ProductCopula,
    TrivariateDistortion,
    UnivariateDistortion,
    Weibull,
    k_out_of_n,
    kofn_survival,
    series,
    validate_structure,
)


def _indices(mask):
    return tuple(j + 1 for j in range(64) if mask >> j & 1)


def raw_subfamilies(structure):
    """(sign, union) for every nonempty subfamily of the path sets."""
    masks = structure.path_masks
    out = []
    for k in range(1, len(masks) + 1):
        sign = 1 if k % 2 else -1
        for combo in combinations(masks, k):
            union = 0
            for m in combo:
                union |= m
            out.append((sign, union))
    return out


def oracle_univariate(structure):
    acc = {}
    for sign, union in raw_subfamilies(structure):
        acc[union] = acc.get(union, 0) + sign
    order = sorted(acc, key=lambda m: (bin(m).count("1"), m))
    return tuple((acc[m], m) for m in order if acc[m] != 0)


def oracle_joint(*structures):
    """Merged joint terms as (coeff, per-variable 1-based index tuples)."""
    acc = {}
    for combo in product(*(raw_subfamilies(s) for s in structures)):
        masks = [0] * len(combo)
        for bit in range(structures[0].n):
            owners = [k for k, (_, union) in enumerate(combo) if union >> bit & 1]
            if owners:
                masks[owners[-1]] |= 1 << bit
        key = tuple(masks)
        coeff = int(np.prod([sign for sign, _ in combo]))
        acc[key] = acc.get(key, 0) + coeff
    return tuple(
        (c, tuple(_indices(m) for m in key)) for key, c in sorted(acc.items()) if c != 0
    )


@st.composite
def _designs(draw, count, max_raw_bits):
    """`count` valid structures on one component set, sum of r bounded."""
    n = draw(st.integers(2, 5))
    structures = []
    for _ in range(count):
        sets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1),
                             min_size=1, max_size=5))
        minimal = {p for p in sets if not any(q < p for q in sets)}
        covered = set().union(*minimal)
        minimal |= {frozenset([j]) for j in range(1, n + 1) if j not in covered}
        structures.append(validate_structure(n, [sorted(p) for p in minimal]))
    assume(sum(s.r for s in structures) <= max_raw_bits)
    return structures


@given(_designs(1, 10))
@settings(max_examples=80, deadline=None)
def test_univariate_terms_match_oracle(structures):
    (s,) = structures
    assert s.inclusion_exclusion().terms == oracle_univariate(s)
    terms = UnivariateDistortion(s, ProductCopula(s.n)).terms
    assert terms == tuple((c, (_indices(m),)) for c, m in oracle_univariate(s))


@given(_designs(2, 12))
@settings(max_examples=60, deadline=None)
def test_bivariate_terms_match_oracle(structures):
    first, system = structures
    d = BivariateDistortion(first, system, ProductCopula(first.n))
    assert d.terms == oracle_joint(first, system)


@given(_designs(3, 12))
@settings(max_examples=60, deadline=None)
def test_trivariate_terms_match_oracle(structures):
    first, second, system = structures
    d = TrivariateDistortion(first, second, system, ProductCopula(first.n))
    assert d.terms == oracle_joint(first, second, system)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5), (2, 6), (4, 6), (6, 7)])
def test_kofn_terms_match_oracle(k, n):
    s = k_out_of_n(k, n)
    assert s.inclusion_exclusion().terms == oracle_univariate(s)
    d = BivariateDistortion(series(n), s, ProductCopula(n))
    assert d.terms == oracle_joint(series(n), s)


def test_cancelled_union_is_dropped():
    # the two- and three-path unions of the whole set cancel: -1 + 1 = 0
    s = validate_structure(5, [[1, 2, 4], [2, 3, 5], [4, 5]])
    terms = s.inclusion_exclusion().terms
    assert terms == oracle_univariate(s)
    assert 0b11111 not in [m for _, m in terms]
    assert BivariateDistortion(series(5), s, ProductCopula(5)).terms == oracle_joint(series(5), s)


@pytest.mark.parametrize("n, merged", [(7, 120), (10, 1013)])
def test_strict_two_of_n_matches_kofn_survival(n, merged):
    # 21 and 45 path sets: beyond a raw 2^r enumeration, easy merged
    marginal = Weibull(1.5, 1.0)
    system = k_out_of_n(2, n)
    assert len(system.inclusion_exclusion().terms) == merged
    pred = EarlyFailurePredictor(series(n), system, ProductCopula(n), marginal,
                                 ordering="strict")
    for t in (0.0, 0.3, 0.9):
        y = t + np.linspace(0.0, 2.0, 11)
        # the system fails at the (n-1)-th of n IID failures
        want = kofn_survival(n, 1, n - 1, t, y, marginal)
        np.testing.assert_allclose(pred.survival(y, t), want, rtol=0, atol=1e-12)
