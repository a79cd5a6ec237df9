"""The benchmark's workloads: which runs make up one pass, and how the seed
reaches them.

An item is either a scenario command line (the arguments the ``kronbrist``
CLI takes, joined by spaces) or ``@rational-api``, a fixed sequence of calls
into the public library API over Q.  Every item of a pass runs in a fresh
interpreter, the way one CLI call does.

The workload seed reaches only ``cfg.seed`` of the three random scenarios.
It is reduced modulo ``SEED_SPACE`` so that every seed the benchmark can be
given has recorded digests (see ``record_digests.py``).
"""

SEED_SPACE = 64

RANDOM_SCENARIOS = ("saturated-faithful", "annihilated-lemma", "indecomposable-generator")

ALL_SCENARIOS = (
    "main-theorem-a",
    "main-theorem-b-bristle-orbits",
    "optimality-I3",
    "opt-taub1",
    "n2-generation",
    "n2-classification",
    "cover-equalities",
    "tau-b1-cover",
    "mu-ext",
    "saturated-faithful",
    "annihilated-lemma",
    "cover-not-bristled",
    "bristled-layers",
    "indecomposable-generator",
)

RATIONAL_API = "@rational-api"

WORKLOADS = {
    # what users and Tier-1 run: every scenario at its defaults, plus the
    # module-file variant (the only item that reaches modfile)
    "defaults": list(ALL_SCENARIOS) + [
        "main-theorem-b-bristle-orbits --module tests/data/dim32_bristled.kron",
    ],
    # exhaustive subset searches: tens of thousands of small subspace sums
    "subsets": [
        "opt-taub1 --n 4 --q 2",
        "optimality-I3 --n 3 --q 3",
        "n2-generation --q 7 --tmax 3",
    ],
    # one 2352 x 2353 Hom system over GF(5): the dense elimination kernel
    "big-hom": [
        "cover-equalities --n 7 --q 5",
    ],
    # the Fraction path of linalg, through a scenario and the library API
    "rational": [
        "annihilated-lemma --rational --n 4",
        RATIONAL_API,
    ],
}


def scenario_seed(seed: int) -> int:
    return seed % SEED_SPACE


def seeded(item: str, seed: int) -> str:
    """The item as it runs under a workload seed."""
    if item.split()[0] in RANDOM_SCENARIOS:
        return f"{item} --seed {scenario_seed(seed)}"
    return item


def items(workload: str, seed: int) -> list:
    return [seeded(item, seed) for item in WORKLOADS[workload]]
