"""Monte Carlo machinery: samplers, sample sets and the coverage experiment.

Sampling works in survival scale: draw V with the copula as its joint CDF
(so V_i = F-bar(X_i) and smaller V means longer life), then push through the
marginal inverse.  Each copula family maps the uniforms itself
(`_from_uniforms`, next to its law kernel), by closed-form conditional
inversion.

Reproducibility contract: every replication of the coverage experiment draws
from its own stream, PCG64 seeded by the replication's child in
`SeedSequence.spawn`, so results do not depend on scheduling and any subset
of replications can be reproduced in isolation.  The child states are derived
arithmetically (`_child_states` mixes each child's index into the parent's
entropy pool, `SeedSequence.pool`, as SeedSequence's last mixing round does,
then runs PCG64's seeding step, over all children at once), and one
generator is set to each state in turn.  A seed is read, never advanced:
passing one `SeedSequence` twice gives the same results.  The streams are drawn in order into stacked
blocks of replications, and the statistics are axis-wise reductions over each
block, equal bit for bit to one replication at a time.

`write_csv` is the one CSV writer: the sample files here and every CLI table.
Every number prints as `'%.9g' %` prints it, rows CSV_BLOCK_ROWS at a time.
A whole block of float64 columns is formatted in numpy (`_g9_rows`): the
nine digits of a cell in fixed notation are its magnitude times an exact
power of ten rounded half to even (`rint`, with Dekker's two-product where
the double product is a half-integer), spread into fixed 24-byte slots by
integer multiply-shift steps and compacted by `bytes.translate`.  Cells in
exponent notation, +-0, inf and nan take `'%.9g' %` one by one.  Shorter
blocks and tables with other columns go through the `%` row template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .copula import ProductCopula
from .errors import InvalidK, LengthMismatch, OutOfRange
from .marginal import Exponential
from .structure import series, validate_structure

# rows formatted per write.  A full block of float64 columns goes through
# numpy, which at 5 columns beats the `%` template from about 100 rows a
# block and is 2.8 times as fast at 1,024; 2,048 rows (3.3 times) would take
# `test_to_csv_memory_is_bounded` to 1.6 of its 2 MB (0.8 at 1,024)
CSV_BLOCK_ROWS = 1024
COVERAGE_CELLS = 1 << 16  # uniforms in each stacked block of replications

# the coverage reference design: the better of component 1 and the series
# pair {2, 3}, observed at its first component failure
COVERAGE_FIRST = series(3)
COVERAGE_SYSTEM = validate_structure(3, [[1], [2, 3]])


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, NEP 19 stable) and the
# PCG64 multiplier, for `_child_states`; the hash constants advance as Python
# ints, so no numpy scalar product overflows
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _words(x):
    """The uint32 words SeedSequence reads from an int or a sequence of ints.

    An int gives its words low first (0 gives one word); a sequence gives
    its elements' words in turn.
    """
    if isinstance(x, (int, np.integer)):
        x = int(x)
        return [(x >> s) & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]
    return [w for v in x for w in _words(v)]


def _hash(words, init, mult, skip):
    """SeedSequence's hashmix of each row of `words`.

    The hash constant is init * mult^skip at the first row, as if `skip`
    hashes came before, and moves on one step per row.
    """
    consts = [init * pow(mult, skip + j, 1 << 32) & _MASK32 for j in range(len(words) + 1)]
    consts = np.array(consts, dtype=np.uint32)[:, None]
    value = (words ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _child_states(seq, count):
    """PCG64 `(state, inc)` of each child in `seq.spawn(count)`, spawning none.

    Child i's entropy is its parent's plus one word, its index
    n_children_spawned + i, so its pool is `seq.pool` with that word hashed
    and mixed into each pool word (SeedSequence's last mixing round), run as
    uint32 arithmetic over all children at once.  The hash constant goes on
    from the parent's pool_size^2 hashes plus pool_size per entropy word past
    the pool (the entropy is zero-padded to the pool size when a spawn key
    follows).  The four uint64 words of `generate_state(4, uint64)` seed
    PCG64 (`srandom`: inc = 2 initseq + 1, state = (inc + initstate) * M +
    inc mod 2^128).  `seq` is only read.  An index that needs a second
    uint32 word (from 2^32 on) raises `OutOfRange`.
    """
    first = seq.n_children_spawned
    if first + count > 1 << 32:
        raise OutOfRange(f"child indices {first}..{first + count - 1} pass 2^32 - 1")
    size = seq.pool_size
    skip = size * (max(len(_words(seq.entropy)), size) + len(_words(seq.spawn_key)))
    index = np.broadcast_to(np.arange(first, first + count, dtype=np.uint32), (size, count))
    pool = _MIX_MULT_L * seq.pool[:, None] - _MIX_MULT_R * _hash(index, _INIT_A, _MULT_A, skip)
    pool ^= pool >> 16
    state = _hash(pool[np.arange(8) % size], _INIT_B, _MULT_B, 0).astype(np.uint64)
    # initstate = hi0:lo0 and initseq = hi1:lo1, as uint64 words
    hi0, lo0, hi1, lo1 = ((state[j] | state[j + 1] << 32).tolist() for j in range(0, 8, 2))
    out = []
    for a, b, c, d in zip(hi0, lo0, hi1, lo1):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        out.append(((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


# -- sampling ----------------------------------------------------------------

def survival_uniforms(copula, U):
    """Map independent uniforms to survival-scale coordinates V ~ copula."""
    U = np.asarray(U, dtype=float)
    if U.shape[-1:] != (copula.n,):
        raise OutOfRange(f"uniform block must have {copula.n} columns")
    return copula._from_uniforms(U.copy())


def _whole(value, name, error):
    """value as an int; raises `error` unless it is integral (10.0 passes)."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and value.is_integer()):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def sample_components(copula, marginal, rng, size):
    """Draw `size` joint component-lifetime rows."""
    U = rng.random((_whole(size, "size", OutOfRange), copula.n))
    return marginal.inv_sf(survival_uniforms(copula, U))


# -- CSV output --------------------------------------------------------------

_POW10 = 10.0 ** np.arange(-1, 23)  # 10^(8 - X) at index 9 - X; exact from 10^0 on
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's split into two 26-bit halves


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _slot_words():
    """The words a fixed-notation slot is made from, as uint64 tables.

    A slot is three little-endian words.  Word 0 is looked up whole by
    (sign, X, first digit) at `(sign * 13 + X + 4) * 9 + digit - 1`: the
    first digit at byte 7, and before it the "0.000" prefix (X < 0) and the
    sign.  Word 1 holds digits 2..9 a byte each; the tables by X + 4 say
    which of them stay in place (integer digits, or all for X < 0), which
    are integer digits kept even when 0, and where the point goes (after
    digit X + 1, so the digits after it move up one byte into word 2).
    """
    lead = np.zeros((2, 13, 9, 8), np.uint8)
    place = np.zeros((13, 8), np.uint8)
    zeros = np.zeros((13, 8), np.uint8)
    point = np.zeros((13, 8), np.uint8)
    for x in range(-4, 9):
        text = b"0." + b"0" * (-x - 1) if x < 0 else b""
        for digit in range(1, 10):
            for sign in (0, 1):
                cell = b"-" * sign + text + b"%d" % digit
                lead[sign, x + 4, digit - 1, 8 - len(cell):] = list(cell)
        place[x + 4, :x if x >= 0 else 8] = 0xFF
        zeros[x + 4, :max(x, 0)] = ord("0")
        if 0 <= x < 8:
            point[x + 4, x] = ord(".")
    tables = (lead, place, ~place, zeros, point)
    return tuple(t.view("<u8").ravel().astype(np.uint64) for t in tables)


_LEAD, _IN_PLACE, _MOVED, _INT_ZEROS, _POINT = _slot_words()
_U = np.uint64


def _g9_rows(block, work, slots):
    """CSV rows of a (rows, cols) float64 block, each cell as `'%.9g' % cell`.

    A cell in fixed notation has a decimal exponent X in -4..8 after
    rounding to nine digits.  X starts as floor(log10 |v|), and the digits
    are N = |v| * 10^(8 - X) rounded half to even.  The power is exact, and
    `rint` of the double product is N unless the double is a half-integer,
    where the exact remainder (Dekker's two-product) decides.  An N of 10^9
    carries to 10^8 with X + 1.  log10 can put X one off only within a few
    ulps of a power of ten, where the product rounds to 10^8 or 10^9 and so
    to the same digits and exponent.  The nine digits are spread into bytes
    by integer multiply-shift steps over all cells at once, trailing zeros
    dropped, and OR-ed with words looked up by X, sign and first digit
    (`_slot_words`) into `slots`, 24 bytes a cell with NUL padding, which
    `bytes.translate` removes.  Cells outside fixed notation (X < -4 or
    X > 8, subnormals among them), +-0, inf and nan get `'%.9g' %` one by
    one, into their slots.

    `work` is (9, rows * cols) float64 scratch and `slots` (rows, cols, 3)
    uint64; both are reused block after block, which spares the page
    faults of fresh allocations.
    """
    rows, cols = block.shape
    v = block.ravel()
    a, x, y, n, s = work[:5]
    d, h, t = work[5:8].view(_U)
    k = work[8].view(np.int64)
    words = slots.reshape(-1, 3)
    # cells outside fixed notation compute garbage here, which their `%`
    # text replaces
    with np.errstate(all="ignore"):
        np.abs(v, out=a)
        np.log10(a, out=x)
        np.floor(x, out=x)
        np.copyto(k, x, casting="unsafe")
        np.subtract(9, k, out=k)
        _POW10.take(k, mode="clip", out=y)
        y *= a
        np.rint(y, out=n)
        np.subtract(n, y, out=s)
        tie = np.flatnonzero(np.abs(s, out=s) == 0.5)
        if tie.size:
            hi = y[tie]
            ah, al = _split(a[tie])
            ph, pl = _split(_POW10.take(k[tie], mode="clip"))
            lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
            n[tie] = np.where(lo == 0, n[tie], np.floor(hi) + (lo > 0))
        carry = n == 1e9
        n[carry] = 1e8
        x += carry
        fixed = (x >= -4) & (x <= 8)
        # N = first * 10^8 + upper * 10^4 + lower; d = upper | lower << 32
        np.floor(np.divide(n, 1e4, out=s), out=s)
        np.subtract(n, np.multiply(s, 1e4, out=y), out=n)
        np.copyto(t, n, casting="unsafe")
        np.floor(np.divide(s, 1e4, out=y), out=y)
        np.subtract(s, np.multiply(y, 1e4, out=n), out=s)
        np.copyto(d, s, casting="unsafe")
        t <<= _U(32)
        d |= t
        # word 0, by sign, X and the first digit y
        np.multiply(x, 9.0, out=s)
        s += y
        np.add(s, 117.0, out=s, where=np.signbit(v))
        np.copyto(k, s, casting="unsafe")
        k += 35
        _LEAD.take(k, mode="clip", out=words[:, 0])
        np.copyto(k, x, casting="unsafe")
        k += 4
    # upper and lower in 32-bit lanes, then 16-bit lanes of two digits,
    # then the eight digits a byte each, digit 2 lowest
    np.bitwise_and(np.right_shift(np.multiply(d, _U(5243), out=h), _U(19), out=h),
                   _U(0x0000007F0000007F), out=h)
    d -= np.multiply(h, _U(100), out=t)
    d <<= _U(16)
    d |= h
    np.bitwise_and(np.right_shift(np.multiply(d, _U(103), out=h), _U(10), out=h),
                   _U(0x000F000F000F000F), out=h)
    d -= np.multiply(h, _U(10), out=t)
    d <<= _U(8)
    d |= h
    # byte j of h is nonzero unless digits j+2..9 are all zero; those bytes
    # and the integer digits become ASCII, the trailing zeros stay NUL
    np.bitwise_or(d, np.right_shift(d, _U(8), out=h), out=h)
    h |= np.right_shift(h, _U(16), out=t)
    h |= np.right_shift(h, _U(32), out=t)
    h += _U(0x0F0F0F0F0F0F0F0F)
    h >>= _U(4)
    h &= _U(0x0101010101010101)
    h *= _U(0x30)
    d |= h
    d |= _INT_ZEROS.take(k, mode="clip", out=h)
    # the digits after the point move up a byte, the last into word 2
    np.bitwise_and(d, _MOVED.take(k, mode="clip", out=t), out=t)
    d &= _IN_PLACE.take(k, mode="clip", out=h)
    d |= np.left_shift(t, _U(8), out=h)
    d |= np.multiply(_POINT.take(k, mode="clip", out=h), t != 0, out=h)
    words[:, 1] = d
    t >>= _U(56)
    seps = np.full(cols, ord(",") << 8, _U)
    seps[-1] = ord("\r") << 8 | ord("\n") << 16
    np.bitwise_or(t.reshape(rows, cols), seps, out=slots[:, :, 2])
    other = np.flatnonzero(~fixed)
    if other.size:
        text = b"".join(("%.9g" % c).encode().ljust(17, b"\0") for c in v[other].tolist())
        slots.view(np.uint8).reshape(-1, 24)[other, :17] = np.frombuffer(
            text, np.uint8).reshape(-1, 17)
    return slots.tobytes().translate(None, b"\0")


def write_csv(path, header, columns):
    """Write equal-length columns under `header` as CSV with CRLF row ends.

    Numeric cells print as `%.9g`; string columns print as they are.  No
    cell is quoted, so names and strings must hold no comma, quote or line
    break (and a one-column table no empty string): the bytes then equal
    `csv.writer`'s.  Rows are formatted CSV_BLOCK_ROWS at a time.  A whole
    block of float64 columns is formatted in numpy (`_g9_rows`); any other
    block (a shorter last one, or one with a string or non-float64 column)
    with one `%` on a repeated row template filled from column slices.
    Columns of unequal length, or a header of another length, raise
    `LengthMismatch`.
    """
    cols = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in cols}
    if len(header) != len(cols) or len(lengths) != 1:
        raise LengthMismatch(f"{len(header)} names over columns of lengths "
                             f"{[len(c) for c in cols]}")
    size = lengths.pop()
    row = ",".join("%s" if c.dtype.kind == "U" else "%.9g" for c in cols) + "\r\n"
    floats = size >= CSV_BLOCK_ROWS and all(c.dtype == np.float64 for c in cols)
    if floats:
        block = np.empty((CSV_BLOCK_ROWS, len(cols)))
        work = np.empty((9, block.size))
        slots = np.empty((CSV_BLOCK_ROWS, len(cols), 3), "<u8")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, size, CSV_BLOCK_ROWS):
            chunk = [c[start:start + CSV_BLOCK_ROWS] for c in cols]
            if floats and len(chunk[0]) == CSV_BLOCK_ROWS:
                np.stack(chunk, axis=1, out=block)
                fh.write(_g9_rows(block, work, slots).decode("ascii"))
                continue
            cells = [c.tolist() for c in chunk]
            fh.write(row * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


# -- sample sets -------------------------------------------------------------

@dataclass
class SampleSet:
    """Simulated component lifetimes with the derived system lifetimes."""

    components: np.ndarray
    t1: np.ndarray
    t: np.ndarray
    t2: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.components.shape[0]

    def columns(self):
        n = self.components.shape[1]
        cols = [(f"x{i + 1}", self.components[:, i]) for i in range(n)]
        cols.append(("t1", self.t1))
        if self.t2 is not None:
            cols.append(("t2", self.t2))
        cols.append(("t", self.t))
        return cols

    def to_csv(self, path):
        names, values = zip(*self.columns())
        write_csv(path, names, values)


def simulate(first, system, copula, marginal, size, seed, second=None) -> SampleSet:
    """Simulate component lifetimes and the ordered system lifetimes."""
    size = _whole(size, "size", OutOfRange)
    if size < 1:
        raise OutOfRange(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(_seed_sequence(seed))
    X = sample_components(copula, marginal, rng, size)
    meta = {
        "seed": seed if isinstance(seed, np.random.SeedSequence) else int(seed),
        "size": size,
        "copula": type(copula).__name__,
        "marginal": type(marginal).__name__,
        "first_paths": first.paths,
        "system_paths": system.paths,
    }
    t2 = None
    if second is not None:
        t2 = second.lifetime(X)
        meta["second_paths"] = second.paths
    return SampleSet(
        components=X,
        t1=first.lifetime(X),
        t=system.lifetime(X),
        t2=t2,
        meta=meta,
    )


# -- coverage experiment -----------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    k: int
    replications: int
    coverage50: float
    se50: float
    coverage90: float
    se90: float


def _interval_offsets():
    """Survival-scale quantile offsets of the reference design at mean 1.

    Reference design: COVERAGE_SYSTEM on three independent exponential
    components, predicted from COVERAGE_FIRST, its first failure (always
    strictly earlier).  Offsets are exact up to the quantile solver
    tolerance and scale linearly in the mean.
    """
    from .predictor import EarlyFailurePredictor

    pred = EarlyFailurePredictor(COVERAGE_FIRST, COVERAGE_SYSTEM, ProductCopula(3),
                                 Exponential(1.0), mode="strict")
    levels = (0.75, 0.25, 0.95, 0.05)
    return dict(zip(levels, pred.quantile(np.array(levels), 0.0).tolist()))


def coverage_experiment(k, replications, seed, *, score="same",
                        eval_draws=None, exact_mu=False) -> CoverageReport:
    """Coverage of plug-in 50%/90% prediction intervals on the reference design.

    Each replication draws k systems, estimates the component mean as
    mu-hat = 3 * mean(T1) (the first failure has mean mu/3), forms the
    centered plug-in intervals [T1 + c_w_hi * mu-hat, T1 + c_w_lo * mu-hat],
    and scores them on the same k systems (`score="fresh"` scores
    `eval_draws` new systems instead, k by default; `eval_draws` without it
    raises `OutOfRange`; `exact_mu` pins mu-hat to the truth).
    """
    return _coverage(k, replications, seed, _interval_offsets(), score=score,
                     eval_draws=eval_draws, exact_mu=exact_mu)


def _coverage(k, replications, seed, offs, *, score="same", eval_draws=None,
              exact_mu=False):
    k = _whole(k, "k", InvalidK)
    replications = _whole(replications, "replications", InvalidK)
    if k < 1 or replications < 1:
        raise InvalidK("need k >= 1 and replications >= 1")
    if score not in ("same", "fresh"):
        raise OutOfRange(f"score must be 'same' or 'fresh', got {score!r}")
    if eval_draws is not None:
        eval_draws = _whole(eval_draws, "eval_draws", OutOfRange)
        if score != "fresh" or eval_draws < 1:
            raise OutOfRange(f"eval_draws needs score='fresh' and >= 1, got {eval_draws!r}")
    m = (k if eval_draws is None else eval_draws) if score == "fresh" else 0
    scored = slice(k, None) if m else slice(None)
    states = _child_states(_seed_sequence(seed), replications)
    bits = np.random.PCG64(0)  # set to each replication's state before its draw
    draw = np.random.Generator(bits).random
    step = max(1, COVERAGE_CELLS // (3 * (k + m)))
    cov50 = np.empty(replications)
    cov90 = np.empty(replications)
    for start in range(0, replications, step):
        # rows k.. of each replication's block are its fresh scoring draws
        U = np.empty((min(step, replications - start), k + m, 3))
        for u, (state, inc) in zip(U, states[start:start + step]):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            draw(out=u)
        X = -np.log(U)
        t1, t = COVERAGE_FIRST.lifetime(X), COVERAGE_SYSTEM.lifetime(X)
        mu_hat = 1.0 if exact_mu else 3.0 * t1[:, :k].mean(axis=1, keepdims=True)
        st1, st = t1[:, scored], t[:, scored]
        done = slice(start, start + U.shape[0])
        cov50[done] = np.mean(
            (st >= st1 + offs[0.75] * mu_hat) & (st <= st1 + offs[0.25] * mu_hat), axis=1
        )
        cov90[done] = np.mean(
            (st >= st1 + offs[0.95] * mu_hat) & (st <= st1 + offs[0.05] * mu_hat), axis=1
        )
    dd = 1 if replications > 1 else 0
    return CoverageReport(
        k=k,
        replications=replications,
        coverage50=float(cov50.mean()),
        se50=float(cov50.std(ddof=dd) / np.sqrt(replications)),
        coverage90=float(cov90.mean()),
        se90=float(cov90.std(ddof=dd) / np.sqrt(replications)),
    )


def coverage_table(ks, replications, seed, **kwargs) -> list[CoverageReport]:
    """Run the coverage experiment over a grid of k values.

    The j-th k gets the j-th spawned child of the root seed (built directly,
    so the seed is not advanced), and adding or removing grid entries does
    not perturb the others.  The interval offsets are solved once for the
    whole grid.
    """
    seq = _seed_sequence(seed)
    offs = _interval_offsets()
    reports = []
    for j, k in enumerate(ks):
        child = np.random.SeedSequence(seq.entropy, pool_size=seq.pool_size,
                                       spawn_key=(*seq.spawn_key, seq.n_children_spawned + j))
        reports.append(_coverage(k, replications, child, offs, **kwargs))
    return reports
