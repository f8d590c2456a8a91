import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict.errors import (
    EmptyPaths,
    IndexOutOfRange,
    LengthMismatch,
    NonMinimalPath,
    TermLimitExceeded,
    UncoveredComponent,
)
from syspredict import structure
from syspredict.structure import (
    SystemStructure,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)


def test_validation_rejects_bad_input():
    with pytest.raises(EmptyPaths):
        validate_structure(3, [])
    with pytest.raises(EmptyPaths, match="^path sets must be nonempty$"):
        validate_structure(3, [[1, 2], []])
    with pytest.raises(IndexOutOfRange):
        validate_structure(3, [[1, 4], [2, 3]])
    with pytest.raises(IndexOutOfRange):
        validate_structure(3, [[0, 1], [2, 3]])
    with pytest.raises(IndexOutOfRange):
        validate_structure(65, [[1]])
    with pytest.raises(NonMinimalPath):
        validate_structure(3, [[1], [1, 2], [3]])
    with pytest.raises(UncoveredComponent):
        validate_structure(4, [[1], [2, 3]])


def test_validation_normalizes():
    # duplicate entries inside a path and duplicate paths collapse
    s = validate_structure(3, [[1, 1, 2], [2, 1], [3]])
    assert s.paths == ((1, 2), (3,))
    assert s.r == 2


def test_lifetime_series_parallel():
    x = np.array([0.7, 0.2, 1.5])
    assert series(3).lifetime(x) == pytest.approx(0.2)
    assert parallel(3).lifetime(x) == pytest.approx(1.5)
    relay = validate_structure(3, [[1], [2, 3]])
    assert relay.lifetime(x) == pytest.approx(0.7)          # max(x1, min(x2, x3))
    gate = validate_structure(3, [[1, 2], [1, 3]])
    assert gate.lifetime(x) == pytest.approx(0.7)           # min(x1, max(x2, x3))
    with pytest.raises(LengthMismatch):
        series(3).lifetime([1.0, 2.0])


def test_lifetime_vectorized():
    rng = np.random.default_rng(0)
    x = rng.exponential(size=(100, 3))
    t = k_out_of_n(2, 3).lifetime(x)
    want = np.sort(x, axis=1)[:, 1]                          # second-largest survives
    np.testing.assert_allclose(t, want)


def oracle_lifetime(struct, times):
    """The stacked form `lifetime` replaced: a fancy index and a trailing
    `.min` per path set, then `.max` over the stacked path minima."""
    arr = np.asarray(times, dtype=float)
    mins = [arr[..., [j - 1 for j in structure._indices(m)]].min(axis=-1)
            for m in struct.path_masks]
    return np.max(np.stack(mins, axis=0), axis=0)


LIFETIME_ENTRIES = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, 0.5,
                             1.0, 2.0])


@pytest.mark.parametrize("struct", [
    series(1), series(3), parallel(3), k_out_of_n(2, 4),
    validate_structure(3, [[1], [2, 3]]), validate_structure(3, [[1, 2], [1, 3]]),
    validate_structure(5, [[1, 4], [2, 3, 5], [2, 4], [1, 5]]),
], ids=lambda s: str(s.paths))
def test_lifetime_matches_the_stacked_form_bitwise(struct):
    rng = np.random.default_rng(71)
    # every pair of entries in every pair of columns, NaN, +-0 and inf included
    X = rng.choice(LIFETIME_ENTRIES, size=(4000, struct.n))
    for times in (X, X.reshape(40, 100, struct.n), X[0]):
        got, want = struct.lifetime(times), oracle_lifetime(struct, times)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))
    assert not np.shares_memory(struct.lifetime(X), X)


def _term_sets(struct):
    """The merged expansion with its component sets spelled out as index tuples."""
    return tuple((c, structure._indices(m)) for c, m in struct.inclusion_exclusion())


def test_inclusion_exclusion_known_systems():
    assert _term_sets(series(3)) == ((1, (1, 2, 3)),)
    got = {comps: c for c, comps in _term_sets(parallel(2))}
    assert got == {(1,): 1, (2,): 1, (1, 2): -1}
    got = {comps: c for c, comps in _term_sets(k_out_of_n(2, 3))}
    assert got == {(1, 2): 1, (1, 3): 1, (2, 3): 1, (1, 2, 3): -2}
    relay = validate_structure(3, [[1], [2, 3]])
    got = {comps: c for c, comps in _term_sets(relay)}
    assert got == {(1,): 1, (2, 3): 1, (1, 2, 3): -1}


def test_inclusion_exclusion_path_cap():
    # 25 singletons merge into 2^25 - 1 unions: refused by the term budget
    s = validate_structure(25, [[j] for j in range(1, 26)])
    with pytest.raises(TermLimitExceeded, match=r"25 path sets exceeds the 2\^20 term budget"):
        s.inclusion_exclusion()


def _brute_force_survival(struct, p):
    """P(system works) with independent component up-probabilities p."""
    total = 0.0
    for states in itertools.product([0, 1], repeat=struct.n):
        works = any(all(states[j - 1] for j in path) for path in struct.paths)
        if works:
            prob = 1.0
            for up, pj in zip(states, p):
                prob *= pj if up else 1.0 - pj
            total += prob
    return total


@st.composite
def _structures(draw):
    n = draw(st.integers(2, 5))
    npaths = draw(st.integers(1, 4))
    paths = []
    for _ in range(npaths):
        size = draw(st.integers(1, n))
        paths.append(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
    # keep only an antichain covering every component; skip otherwise
    try:
        return validate_structure(n, paths)
    except (NonMinimalPath, UncoveredComponent):
        return None


@given(_structures(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_inclusion_exclusion_matches_brute_force(struct, seed):
    if struct is None:
        return
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, struct.n)
    acc = 0.0
    for coeff, comps in _term_sets(struct):
        acc += coeff * np.prod([p[j - 1] for j in comps])
    assert acc == pytest.approx(_brute_force_survival(struct, p), abs=1e-12)


@given(_structures(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lifetime_matches_structure_function(struct, seed):
    if struct is None:
        return
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=struct.n)
    t = struct.lifetime(x)
    # system alive at time s iff some path has all components alive
    for s in np.linspace(0.0, x.max() * 1.1, 13):
        alive = any(all(x[j - 1] > s for j in path) for path in struct.paths)
        assert alive == (t > s)


def test_k_out_of_n_bounds():
    with pytest.raises(IndexOutOfRange):
        k_out_of_n(0, 3)
    with pytest.raises(IndexOutOfRange):
        k_out_of_n(4, 3)
    assert k_out_of_n(1, 4).paths == parallel(4).paths
    assert k_out_of_n(4, 4).paths == series(4).paths
    for build in (series, parallel, lambda n: k_out_of_n(1, n)):
        with pytest.raises(IndexOutOfRange):
            build(65)
        with pytest.raises(IndexOutOfRange):
            build(3.0)
    with pytest.raises(IndexOutOfRange):
        series(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_builders_equal_validated_structures(n):
    # the builders skip the minimality scan: they must build what it accepts
    comps = range(1, n + 1)
    assert series(n) == validate_structure(n, [comps])
    assert parallel(n) == validate_structure(n, [[j] for j in comps])
    for k in comps:
        assert k_out_of_n(k, n) == validate_structure(n, itertools.combinations(comps, k))


def test_wide_k_out_of_n_builds_without_the_scan():
    start = time.perf_counter()
    s = k_out_of_n(10, 20)  # 184,756 path sets: the scan alone took about 47 s
    assert time.perf_counter() - start < 1.0
    assert s.r == 184756
    with pytest.raises(TermLimitExceeded):
        s.inclusion_exclusion()


def _oracle_nested_message(n, paths):
    """The pairwise loop the minimality check replaced: first pair in combinations order."""
    masks = []
    for p in paths:
        m = sum(1 << (j - 1) for j in set(p))
        if m not in masks:
            masks.append(m)
    for a, b in itertools.combinations(masks, 2):
        if a & b == a or a & b == b:
            small = min(a, b, key=lambda x: bin(x).count("1"))
            comps = tuple(j + 1 for j in range(n) if small >> j & 1)
            return f"path set {comps} is contained in another"
    return None


@given(st.integers(2, 7), st.lists(st.sets(st.integers(1, 7), min_size=1), min_size=1,
                                   max_size=12), st.sampled_from([1, 5, 1 << 20]))
@settings(max_examples=150, deadline=None)
def test_minimality_check_matches_pairwise_loop(n, raw, cells):
    paths = [sorted(j for j in p if j <= n) or [1] for p in raw]
    want = _oracle_nested_message(n, paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "PAIR_CELLS", cells)  # 1 and 5: many row blocks
        try:
            validate_structure(n, paths)
            got = None
        except NonMinimalPath as exc:
            got = str(exc)
        except UncoveredComponent:
            got = "uncovered"
    if got == "uncovered":
        assert want is None
    else:
        assert got == want


def test_wide_minimality_check_is_vectorized():
    s = k_out_of_n(7, 15)  # 6,435 path sets, about 20.7M pairs
    assert s.r == 6435
    with pytest.raises(NonMinimalPath, match=r"path set \(1, 2, 3, 4, 5, 6, 7\)"):
        validate_structure(15, list(s.paths) + [[1, 2, 3, 4, 5, 6, 7, 8]])


def test_one_size_families_skip_the_minimality_scan(monkeypatch):
    calls, scan = [], structure._first_nested_pair

    def spy(masks):
        calls.append(len(masks))
        return scan(masks)

    monkeypatch.setattr(structure, "_first_nested_pair", spy)
    # distinct 9-subsets never nest: 48,620 path sets, about 1.2G pairs unscanned
    assert validate_structure(18, itertools.combinations(range(1, 19), 9)) == k_out_of_n(9, 18)
    assert calls == []
    validate_structure(3, [[1], [2, 3]])
    assert calls == [2]
