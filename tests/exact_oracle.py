"""Exact conditional laws under the product, FGM and Clayton-pair copulas.

`ExactLaw(copula, *structures)` holds the rows of num and den for a
predictor with observed structures `structures[:-1]` and system
`structures[-1]`: a row per joint term and choice of one coordinate carrying
each observed variable, as the per-term loop (`law_oracle.oracle_sum`) sums
them.  Under product and FGM it evaluates every row's FGM kernel, prod_{j not in S} u_j + theta prod_{i in S} (1 - 2u_i)
prod_{j not in S} u_j (1 - u_j) (theta = 0 for the product copula), at the
exact values of the float inputs, so num, den and their ratio carry no
rounding.

Every double is an integer multiple of a power of two, so with 2^-E the
finest of these among the inputs and theta, each factor is held as the
integer u * 2^E (2^E stands for 1) and the sums are Python integers, with
no gcd per operation as `Fraction` would take.  All rows of a partial in k
of n coordinates have n - k kept factors and 1 + 2n - k in
theta * bent * spread, so the kept part is shifted by E (n + 1) bits to the
same unit; num and den share it, and their ratio is one `Fraction`.
Under a Clayton pair a row is the product of its undifferentiated
independent coordinates times the pair factor or its partial, which is not
rational: those rows are summed in `decimal` at 60 digits, with powers taken
as exp(y ln x), within about 1e-55 of the exact value, and the ratio is
held as the `Fraction` of the `Decimal` quotient.
`relative_error(got, want)` is |got - want| / |want| in exact arithmetic,
rounded once.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

from syspredict import ClaytonPairCopula, FGMCopula
from syspredict.distortion import _joint_terms

DIGITS = 60


def _clayton(p, q, theta):
    """(value, d/dp, d/dq, d2/dp dq) of the Clayton pair factor at Decimals p, q."""
    if p == 0 or q == 0:
        return 0, int(p == 0 < q), int(q == 0 < p), 0
    a, b = (-theta * p.ln()).exp(), (-theta * q.ln()).exp()  # p^-theta, q^-theta
    s = a + b - 1
    value = (-s.ln() / theta).exp()
    return (value, a / p * value / s, b / q * value / s,
            (1 + theta) * a / p * b / q * value / (s * s))

def _exponent(x):
    """The E for which x * 2^E is the smallest integer multiple: x's finest bit."""
    return float(x).as_integer_ratio()[1].bit_length() - 1


def _fixed(x, exponent):
    """x * 2^exponent as an exact integer, for exponent >= `_exponent(x)`."""
    numerator, denominator = float(x).as_integer_ratio()
    return numerator << (exponent - (denominator.bit_length() - 1))


def _rows(terms, k, n):
    """(coeff, layout, differentiated) per row of the partial in variables 0..k-1."""
    out = []
    for coeff, masks in terms:
        layout = [None] * n  # variable per coordinate, None where pinned to 1
        carried = []
        for var, m in enumerate(masks):
            coords = [i for i in range(n) if m >> i & 1]
            carried.append(coords)
            for i in coords:
                layout[i] = var
        for chosen in product(*carried[:k]):
            out.append((coeff, tuple(layout), frozenset(chosen)))
    return out


class ExactLaw:
    """num(c, z) and den(c) of one predictor, and their ratio S(z | c)."""

    def __init__(self, copula, *structures):
        self.theta = copula.theta if isinstance(copula, FGMCopula) else 0.0
        self.pair = copula.pair if isinstance(copula, ClaytonPairCopula) else None
        self.clayton_theta = getattr(copula, "theta", 0.0)
        self.n = copula.n
        k = len(structures) - 1
        self._num = _rows(_joint_terms(*structures), k, copula.n)
        self._den = _rows(_joint_terms(*structures[:-1]), k, copula.n)

    def _sum(self, rows, values, exponent):
        """The rows' sum in units of 2^(-exponent (1 + 2n - k))."""
        one = 1 << exponent
        theta = _fixed(self.theta, exponent)
        # per variable: u, u (1 - u) and 1 - 2u; a pinned coordinate is u = 1
        parts = [(u, u * (one - u), one - 2 * u) for u in (_fixed(v, exponent) for v in values)]
        parts.append((one, 0, -one))
        lift = exponent * (self.n + 1)  # kept part -> the unit of the theta part
        total = 0
        for coeff, layout, chosen in rows:
            kept = bent = spread = 1
            for i, var in enumerate(layout):
                u, s, b = parts[-1 if var is None else var]
                if i in chosen:
                    bent *= b
                else:
                    kept *= u
                    spread *= s
            total += coeff * ((kept << lift) + theta * bent * spread)
        return total

    def _pair_sum(self, rows, values, theta):
        """The rows' sum under the Clayton pair, in Decimal."""
        j, k = (i - 1 for i in self.pair)
        factors = {}  # (p, q) -> the pair factor and its partials
        total = 0
        for coeff, layout, chosen in rows:
            u = [1 if var is None else values[var] for var in layout]
            kept = 1
            for i, x in enumerate(u):
                if i not in (j, k) and i not in chosen:
                    kept *= x
            if (u[j], u[k]) not in factors:
                factors[u[j], u[k]] = _clayton(Decimal(u[j]), Decimal(u[k]), theta)
            pair = factors[u[j], u[k]][(j in chosen) + 2 * (k in chosen)]
            total += coeff * kept * pair
        return total

    def law(self, z, *c):
        """S(z | c) = num(c, z) / den(c), clipped to [0, 1] as the package clips."""
        if self.pair is None:
            exponent = max(_exponent(x) for x in (*c, z, self.theta))
            value = Fraction(self._sum(self._num, (*c, z), exponent),
                             self._sum(self._den, c, exponent))
        else:
            with localcontext() as ctx:
                ctx.prec = DIGITS
                values = [Decimal(x) for x in (*c, z)]
                theta = Decimal(self.clayton_theta)
                value = Fraction(self._pair_sum(self._num, values, theta)
                                 / self._pair_sum(self._den, values, theta))
        return min(max(value, Fraction(0)), Fraction(1))


def relative_error(got, want):
    """|got - want| / |want|, exact but for one rounding; 0 where both are 0."""
    if want == 0:
        return 0.0 if got == 0 else float("inf")
    return float(abs(Fraction(got) - want) / abs(want))
