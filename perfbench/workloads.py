"""Workload inputs: fixed `verify` flags and the seeded `bounds` query mix.

Nothing here imports the program, so set-up probes can time the import of
`grusslab.cli` and the building of these inputs separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CORPUS = ("e0", "e1", "e2", "hat", "absmid", "sinpi",
          "expneg", "halfstep", "dirichlet", "randlip")

WORKLOADS = ("verify_default", "ray_sweep", "bounds_queries")

#: One block of the query mix: four families that build modulus envelopes,
#: then eight that do not, so exactly one query in three builds envelopes.
ENVELOPE_SLOTS = ("bernstein", "sdelta", "king", "lagrange_cheb")
PLAIN_SLOTS = ("szasz", "szasz", "baskakov", "baskakov", "bbh", "bbh",
               "two_point", "measure_example")
BLOCK = ENVELOPE_SLOTS + PLAIN_SLOTS
MIX_BLOCKS = 120      # 1440 queries; a run cycles through them block by block
TAIL_WINDOW = 20      # blocks (240 queries) per window of the tail percentile
MAX_DEGREE = 64
X_MAX = 50.0          # the corpus cut for [0, inf), the program's default
E1E1_EVERY = 5        # every fifth block's Bernstein query is T(e1, e1)

#: Exact argv of one operation per verify workload.  The verify report is
#: deterministic for fixed flags, so these workloads ignore the seed.
VERIFY_ARGV = {
    "verify_default": ["verify"],
    "ray_sweep": ["verify", "--families", "szasz,baskakov"],
}

#: Untimed operations with fixed arguments before timing.  Verify warms up
#: with one small call that runs the lazy code paths of the timed call but
#: fills the Lebesgue and Chebyshev-grid caches for n = 1, 2 only.  The query
#: mix warms up with one query per family at degree 65, outside the mix, so
#: the lazy code paths are run but the Lagrange caches hold no degree of the
#: mix: each degree's first Lagrange query in a run pays its cold Lebesgue
#: constant inside the timed phase, as an in-process caller would.
WARMUP_DEGREE = MAX_DEGREE + 1
WARMUP = {
    "verify_default": [["verify", "--degrees", "1,2", "--xgrid", "9",
                        "--conjecture-nmax", "2"]],
    "ray_sweep": [["verify", "--families", "szasz,baskakov", "--degrees", "1",
                   "--xgrid", "9", "--conjecture-nmax", "2"]],
}


@dataclass(frozen=True)
class Query:
    family: str
    n: int
    x: float          # evaluation point; the parameter a for two_point/measure
    f: str
    g: str

    @property
    def builds_envelopes(self) -> bool:
        return self.family in ENVELOPE_SLOTS

    def argv(self) -> list[str]:
        if self.family in ("two_point", "measure_example"):
            op = f"{self.family}:1:{self.x!r}"
        else:
            op = f"{self.family}:{self.n}"
        return ["bounds", "--op", op, "--f", self.f, "--g", self.g,
                "--x", repr(self.x)]


def query_mix(seed: int, blocks: int = MIX_BLOCKS) -> list[list[Query]]:
    """Seeded blocks of twelve `bounds` queries; degrees uniform on 1..64."""
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        block = []
        for family in BLOCK:
            f, g = rng.choice(CORPUS), rng.choice(CORPUS)
            n = rng.randint(1, MAX_DEGREE)
            if family == "lagrange_cheb":
                x = rng.uniform(-1.0, 1.0)
            elif family in ("szasz", "baskakov", "bbh"):
                x = rng.uniform(0.0, X_MAX)
            else:
                x = rng.random()
            if family in ("two_point", "measure_example"):
                n = 1
            if family == "bernstein" and b % E1E1_EVERY == 0:
                f = g = "e1"
            block.append(Query(family, n, x, f, g))
        rng.shuffle(block)
        out.append(block)
    return out


@dataclass(frozen=True)
class VerifyCall:
    args: tuple[str, ...]

    def argv(self) -> list[str]:
        return list(self.args)


WARMUP["bounds_queries"] = [
    Query(family, 1 if family in ("two_point", "measure_example") else WARMUP_DEGREE,
          0.25, "sinpi", "randlip").argv()
    for family in dict.fromkeys(BLOCK)]


def build_inputs(workload: str, seed: int) -> list[list]:
    """The workload's operations, grouped in rounds that a run repeats whole."""
    if workload in VERIFY_ARGV:
        return [[VerifyCall(tuple(VERIFY_ARGV[workload]))]]
    if workload == "bounds_queries":
        return query_mix(seed)
    raise ValueError(f"unknown workload {workload!r}")
