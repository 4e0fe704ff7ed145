"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and nothing else, so one seed
always gives byte-identical inputs.  Each seed sees the same mix of input
shapes; only the concrete numbers (rank) or the order (certify, oracle)
change with the seed.  That keeps medians, tails and failure shares
comparable from seed to seed.
"""

import random
from fractions import Fraction

from reference import Reference, trial_factor

#: a direct and a descent pair at each rank
FIXED_CERTIFY_PAIRS = ((8, 9), (-3, 1), (4, 4), (1, 16), (-27, -432))
CERTIFY_COEFF_BOUND = 100
CERTIFY_DRAW = 25
#: sixth-power rescalings u, v for A*u^6, B*v^6; a fraction on a negative
#: coefficient makes a "-p/q" literal, which the CLI's argparse rejects
RESCALE_FACTORS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                   Fraction(2, 3), Fraction(3, 2))

#: small enough for many census runs per benchmark run, whose median is
#: steady: a few long ops per run cannot be timed steadily on a machine
#: whose speed drifts
CENSUS_BOUND = 100
#: footer and rank-3 pairs of the census at CENSUS_BOUND, recorded from
#: the reference formula (checks.census_expectation)
CENSUS_EXPECT = {
    "pairs": 39204,
    "histogram": {0: 38961, 1: 222, 2: 17, 3: 4},
    "rank3": [(-27, 16), (1, 16), (16, -27), (16, 1)],
}

ORACLE_SWEEP_BOUND = 10
ORACLE_SWEEP_HEIGHT = 12
#: k=1 searches over the widest (descent) shape.  At height 8 each takes
#: 1-2 s, short enough to time steadily; one 10-15 s search at height 12
#: spread by more than 20% from run to run.  The descent points of
#: (-27, +-54) lie within height 8 and must be found; those of the others
#: lie beyond it, so their searches run to exhaustion.
ORACLE_DESCENT_PAIRS = ((-3, 18), (-3, -18), (-12, 36), (-12, -36),
                        (-27, 54), (-27, -54))
ORACLE_DESCENT_HEIGHT = 8
ORACLE_DESCENT_POINTS = {
    (-27, 54): "(4*s^2 - 8*s + 1, 8*s^3 - 24*s^2 + 15*s + 1)",
    (-27, -54): "(4*s^2 + 8*s + 1, 8*s^3 + 24*s^2 + 15*s - 1)",
}

RANK_BLOCKS = 5
#: one block of rank queries; every block has exactly this mix.  "den"
#: shapes put a denominator on one coefficient; "big1" carries one prime
#: in 10^6..10^9, "big2" two primes in 10^6..10^8 (Brent rho territory).
#: A negative "den" coefficient is a "-p/q" literal (argparse exit 2);
#: a big prime in a denominator makes classify() raise
#: FactorBudgetExceeded.  Both are known defects, kept visible.
#: The sign is that of the shaped coefficient, 0 for a random one.
#: Positive "big2_den" keeps four of the slowest queries per block in
#: the rank timings, so that their p90 is not one extreme draw.
RANK_BLOCK = (
    7 * [("int", 0)]
    + [("small_den", 1)] + 2 * [("small_den", -1)]
    + 4 * [("big1_num", 0)] + [("big1_den", 1), ("big1_den", -1)]
    + 2 * [("big2_num", 0)] + 2 * [("big2_den", 1)]
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sixth_power_free(bound: int) -> list:
    """Sixth-power-free integers v with 1 <= |v| <= bound, ascending."""
    out = []
    for v in range(-bound, bound + 1):
        n = abs(v)
        if n and all(n % p ** 6 for p in range(2, int(n ** (1 / 6)) + 2)):
            out.append(v)
    return out


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.4 * 10^14."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randrange(lo, hi)
    while not _is_prime(n):
        n += 1
    return n


def _largest_remainder(sizes: list, total: int) -> list:
    whole = sum(sizes)
    quotas = [total * s / whole for s in sizes]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(sizes)), key=lambda i: counts[i] - quotas[i])
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def certify_pairs(seed: int) -> list:
    """The fixed pairs, then a stratified draw of positive-rank pairs with
    |A|, |B| <= 100, a third of each stratum rescaled by sixth powers.

    The draw itself does not depend on the seed, which only orders the
    drawn pairs: with a few dozen pairs, a seeded draw moved the p90 by more
    than the metric's bound from seed to seed.  The draw is small so that a
    run times every pair more than once.
    """
    draw = random.Random("certify-draw")
    ref = Reference(trial_factor)
    values = sixth_power_free(CERTIFY_COEFF_BOUND)
    fixed = set(FIXED_CERTIFY_PAIRS)
    strata = {}
    for a in values:
        for b in values:
            r = ref.components(a, b)
            if sum(r) and (a, b) not in fixed:
                descent = any(
                    on and not ref.is_square(sq)
                    for on, sq in zip(r, (a, b, a, b)))
                strata.setdefault((sum(r), descent), []).append((a, b))
    keys = sorted(strata)
    counts = _largest_remainder([len(strata[k]) for k in keys], CERTIFY_DRAW)
    drawn = []
    for key, n in zip(keys, counts):
        for i, (a, b) in enumerate(draw.sample(strata[key], n)):
            if i % 3 == 2:
                u, v = Fraction(1), Fraction(1)
                while u == v == 1:
                    u, v = draw.choice(RESCALE_FACTORS), draw.choice(RESCALE_FACTORS)
                a, b = a * u ** 6, b * v ** 6
            drawn.append((Fraction(a), Fraction(b)))
    random.Random(f"certify/{seed}").shuffle(drawn)
    return [(Fraction(a), Fraction(b)) for a, b in FIXED_CERTIFY_PAIRS] + drawn


def _small_part(rng: random.Random, primes: tuple) -> int:
    n = 1
    for p in rng.sample(primes, rng.randint(0, 3)):
        n *= p ** rng.randint(1, 8)
    return n


def _special_coefficient(rng: random.Random, shape: str, sign: int) -> Fraction:
    """One coefficient of the given shape; sign 0 means a random sign."""
    primes = list(_SMALL_PRIMES)
    rng.shuffle(primes)
    num, den = _small_part(rng, tuple(primes[:9])), 1
    if shape == "small_den":
        while den == 1:
            den = _small_part(rng, tuple(primes[9:]))
    elif shape != "int":
        if shape.startswith("big1"):
            big = _prime_between(rng, 10 ** 6, 10 ** 9)
        else:
            big = (_prime_between(rng, 10 ** 6, 10 ** 8)
                   * _prime_between(rng, 10 ** 6, 10 ** 8))
        if shape.endswith("_num"):
            num *= big
        else:
            den = big
    if sign == 0:
        sign = rng.choice((1, -1))
    return Fraction(sign * num, den)


def rank_queries(seed: int) -> list:
    """RANK_BLOCKS shuffled blocks of RANK_BLOCK shapes, as (A, B, shape)."""
    rng = random.Random(f"rank/{seed}")
    queries = []
    for _ in range(RANK_BLOCKS):
        block = list(RANK_BLOCK)
        rng.shuffle(block)
        for shape, sign in block:
            special = _special_coefficient(rng, shape, sign)
            other = _special_coefficient(rng, "int", 0)
            if rng.random() < 0.5:
                queries.append((special, other, shape))
            else:
                queries.append((other, special, shape))
    return queries


def oracle_units(seed: int) -> list:
    """("sweep", A, B) for every sixth-power-free pair with |A|, |B| <= 10,
    then ("descent", A, B) for the descent pairs, each part in seeded order."""
    rng = random.Random(f"oracle/{seed}")
    values = sixth_power_free(ORACLE_SWEEP_BOUND)
    sweep = [("sweep", a, b) for a in values for b in values]
    descent = [("descent", a, b) for a, b in ORACLE_DESCENT_PAIRS]
    rng.shuffle(sweep)
    rng.shuffle(descent)
    return sweep + descent
