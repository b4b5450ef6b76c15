"""Seeded workload generators for the bunpic benchmark.

Each generator turns a seed into a list of :class:`Case` objects, one batch
line each.  The program only ever sees the JSON lines; everything else on a
case (the prime a ``big_coeff`` cokernel must contain) stays with the
benchmark.  The generators import nothing from bunpic: the pi_1 shapes they
draw delta from are written down here, and ``worker.py setup --validate`` checks
every generated config against bunpic's input validators before any timing,
so that a generator bug stops the run instead of counting as a program
failure.

Same seed, same bytes: every random choice goes through one
``random.Random(seed)`` per workload, and lines are serialized with sorted
keys.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
# not used while writing the benchmark; later claims are re-checked on it
HELD_OUT_SEED = 20240104

ALL = ("pi1", "forms", "ns", "picard", "rigidified", "gerbe")


@dataclass(frozen=True)
class Case:
    config: dict
    prime: int | None = None     # big_coeff: an invariant factor of coker(wt)

    @property
    def line(self) -> str:
        return json.dumps(self.config, sort_keys=True, separators=(",", ":"))


def _delta(rng: random.Random, pi1) -> list:
    """Random coordinates in pi_1 = Z^free + Z/t_1 + ... (free ones first)."""
    free, torsion = pi1
    return [rng.randint(-3, 3) for _ in range(free)] + [rng.randrange(t) for t in torsion]


# ---------------------------------------------------------------------------
# full_large: every large group once, full computation list


FULL_LARGE = (
    # (group, family, pi_1 as (free rank, invariant factors))
    ("E6sc", "universal:2,1", (0, ())),
    ("E7ad", "universal:2,1", (0, (2,))),
    ("E8", "universal:2,1", (0, ())),
    ("F4", "universal:2,1", (0, ())),
    ("Sp(8)", "universal:2,1", (0, ())),
    ("Spin(12)", "universal:2,1", (0, ())),
    ("GL(8)", "universal:2,1", (1, ())),
    ("SO(10)*PGL(4)", "universal:3,1", (0, (2, 4))),
)


def full_large(seed: int) -> list:
    rng = random.Random(seed)
    cases = [Case({"group": g, "delta": _delta(rng, pi1), "family": fam, "compute": list(ALL)})
             for g, fam, pi1 in FULL_LARGE]
    rng.shuffle(cases)
    return cases


def full_large_space() -> list:
    """Every config any seed of full_large can draw, for the golden record."""
    cases = []
    for g, fam, (free, torsion) in FULL_LARGE:
        ranges = [range(-3, 4)] * free + [range(t) for t in torsion]
        for delta in itertools.product(*ranges):
            cases.append(Case({"group": g, "delta": list(delta), "family": fam,
                               "compute": list(ALL)}))
    return cases


# ---------------------------------------------------------------------------
# sweep_small: every small group against every family preset


SMALL_GROUPS = (
    ("SL(2)", (0, ())), ("SL(3)", (0, ())), ("SL(4)", (0, ())),
    ("GL(2)", (1, ())), ("GL(3)", (1, ())), ("GL(4)", (1, ())),
    ("PGL(2)", (0, (2,))), ("PGL(3)", (0, (3,))), ("PGL(4)", (0, (4,))),
    ("Sp(4)", (0, ())), ("PSp(4)", (0, (2,))), ("SO(5)", (0, (2,))),
    ("Spin(7)", (0, ())), ("G2", (0, ())), ("SO(8)", (0, (2,))),
    ("PSO(8)", (0, (2, 2))), ("T(1)", (1, ())), ("T(2)", (2, ())),
    ("GL(2)*T(1)", (2, ())), ("SL(2)*PGL(2)", (0, (2,))),
)

# One group's lines take these compute lists, in a seeded order, so every
# seed does the same mix of work and only the pairing with presets varies.
SWEEP_COMPUTE = (
    ("pi1",), ("forms",), ("ns",), ("picard",), ("rigidified",), ("gerbe",),
    ("pi1", "picard"), ("forms", "ns"), ("picard", "gerbe"), ALL,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _preset(rng: random.Random, name: str) -> str:
    """A preset with random parameters inside the preset's valid range."""
    if name == "universal":
        return f"universal:{rng.randint(0, 4)},{rng.randint(0, 2)}"
    if name == "plane_curve":
        return f"plane_curve:{rng.randint(1, 5)}"
    if name == "complete_intersection":
        return "complete_intersection:" + rng.choice(("2", "3", "4", "2,2", "2,3", "2,2,2"))
    if name == "k3_hyperplane":
        return f"k3_hyperplane:{rng.randint(3, 6)}"
    if name == "hyperelliptic":
        return f"hyperelliptic:{rng.randint(2, 5)}"
    if name in ("hurwitz", "severi"):
        g = rng.randint(2, 5)
        # Brill-Noether number rho = g - (r+1)(g+r-d) must be >= 2
        d_min = _ceil_div(g + 4, 2) if name == "hurwitz" else _ceil_div(2 * g + 8, 3)
        return f"{name}:{g},{d_min + rng.randint(0, 2)}"
    if name == "fixed_curve":
        return f"fixed_curve:{rng.randint(0, 4)}"
    return name      # genus0_trivial, genus0_nontrivial take no parameters


PRESETS = (
    "universal", "plane_curve", "complete_intersection", "k3_hyperplane",
    "hyperelliptic", "hurwitz", "severi", "fixed_curve", "genus0_trivial",
    "genus0_nontrivial",
)


def sweep_small(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for group, pi1 in SMALL_GROUPS:
        computes = list(SWEEP_COMPUTE)
        rng.shuffle(computes)
        for preset, compute in zip(PRESETS, computes):
            compute = list(compute) + (["poincare"] if group == "T(1)" else [])
            cases.append(Case({"group": group, "delta": _delta(rng, pi1),
                               "family": _preset(rng, preset), "compute": compute}))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# big_coeff: one large prime delta(C/S) per report


BIG_GROUPS = (("T(1)", 1), ("T(2)", 2), ("GL(2)", 1), ("GL(3)", 1), ("GL(2)*T(1)", 2))
BIG_CASES = 20
PRIME_LO, PRIME_HI = 10 ** 11, 10 ** 12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def big_coeff(seed: int) -> list:
    """Case i draws its prime from the i-th of BIG_CASES equal strata of
    [PRIME_LO, PRIME_HI) and uses group i mod 5, so every seed spreads the
    same groups over the same range of sizes (the cost grows as sqrt(p))."""
    rng = random.Random(seed)
    width = (PRIME_HI - PRIME_LO) // BIG_CASES
    cases = []
    for i in range(BIG_CASES):
        group, free = BIG_GROUPS[i % len(BIG_GROUPS)]
        p = rng.randrange(PRIME_LO + i * width, PRIME_LO + (i + 1) * width - 10 ** 6)
        while not is_prime(p):
            p += 1
        # delta(C/S) = p must divide 2g - 2, and d + 1 - g = 0 mod p
        genus = 1 if i % 2 == 0 else p + 1
        family = {"genus": genus, "delta": p, "end_jacobian_trivial": True,
                  "rpic_surjective": True, "rpic0_torsion_free": True,
                  "label": "big_coeff"}
        delta = [p * rng.randint(1, 3) for _ in range(free)]
        cases.append(Case({"group": group, "delta": delta, "family": family,
                           "compute": list(ALL)}, prime=p))
    rng.shuffle(cases)
    return cases


WORKLOADS = {"full_large": full_large, "sweep_small": sweep_small, "big_coeff": big_coeff}

# Warm-up report run, untimed, before each in-process pass; it is in no workload.
WARMUP = {"group": "GL(1)", "delta": [1], "family": "universal:1,1", "compute": list(ALL)}
