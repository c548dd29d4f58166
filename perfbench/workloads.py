"""Seeded workload generators.

Each workload is a list of `Command`s: the argument vector the program sees
(everything after `tensormult`) plus a structured description the benchmark
uses for its own checks and for the traced in-process pipeline.  Seeded
commands draw from finite pools of similar cost, so a pass costs about the
same whatever the seed, and every command any seed can produce has a
recorded output digest (see `all_commands`).
"""

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("tables", "high-rank", "hooks", "verify")


@dataclass(frozen=True)
class Command:
    """One `tensormult` invocation.

    kind is one of "multiplicity", "branch", "super", "verify".  For the
    query kinds, rank, spins (one degree per tensor factor), lam, roots, shape
    and check mirror the command-line flags.
    """

    argv: tuple[str, ...]
    kind: str
    fixed: bool
    rank: int = 0
    spins: tuple[int, ...] = ()
    lam: tuple[int, ...] | None = None
    roots: str | None = None
    shape: tuple[int, int] | None = None
    check: bool = False

    @property
    def key(self) -> str:
        """Digest-table key: the command line as a user would type it."""
        return "tensormult " + " ".join(self.argv)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Command":
        fields = json.loads(text)
        for name in ("argv", "spins", "lam", "shape"):
            if fields[name] is not None:
                fields[name] = tuple(fields[name])
        return cls(**fields)


def multiplicity(rank, two_s, nsites=None, lam=None, check=False, fixed=True):
    """`multiplicity --table` (lam None) or a single `--lambda` query.

    two_s is one degree repeated nsites times, or a tuple of per-factor degrees.
    """
    if nsites is None:
        spins = tuple(two_s)
        argv = ["multiplicity", "--algebra", f"A{rank}", "--twoS", ",".join(map(str, spins))]
    else:
        spins = (two_s,) * nsites
        argv = ["multiplicity", "--algebra", f"A{rank}", "--twoS", str(two_s), "--L", str(nsites)]
    if lam is None:
        argv.append("--table")
    else:
        argv += ["--lambda", ",".join(map(str, lam))]
    if check:
        argv.append("--check")
    return Command(tuple(argv), "multiplicity", fixed, rank, spins, lam, check=check)


def branch(rank, roots, two_s, nsites):
    argv = ("branch", "--algebra", f"A{rank}", "--roots", roots,
            "--twoS", str(two_s), "--L", str(nsites), "--table")
    return Command(argv, "branch", True, rank, (two_s,) * nsites, roots=roots)


def hook(shape, two_s, nsites, roots=None, check=False, fixed=True):
    argv = ["super", "--shape", f"{shape[0]},{shape[1]}", "--twoS", str(two_s), "--L", str(nsites)]
    if roots is not None:
        argv += ["--roots", roots]
    argv.append("--table")
    if check:
        argv.append("--check")
    return Command(tuple(argv), "super", fixed, shape[0] + shape[1] - 1,
                   (two_s,) * nsites, roots=roots, shape=shape, check=check)


VERIFY = Command(("verify", "--suite", "all"), "verify", True)

# The trivial launch timed as setup_s: process start, import, argument parsing.
SETUP = Command(("occupancy", "--algebra", "A1", "--twoS", "1", "--L", "1", "--M", "0"),
                "occupancy", True)

# Mixed per-factor degrees for A3: four factors of degree 3..6 summing to 18,
# so every choice builds a store of about the same size.
MIXED_A3_POOL = tuple(
    t for t in itertools.product(range(3, 7), repeat=4) if sum(t) == 18
)

# Diagrams of 8 boxes with at most 7 rows: every label of the A6 eighth power
# of the defining module.  Each query costs one full 7!-term expansion.
A6_LAMBDA_POOL = tuple(
    lam for lam in (
        tuple(p) for n in range(1, 8)
        for p in itertools.combinations_with_replacement(range(8, 0, -1), n)
        if sum(p) == 8
    )
)
A6_QUERIES = 8

# Closed root subsets of the (3,3) hook algebra whose restriction tables at
# 2s=2, L=7 cost within about 20 % of each other and peak below the fixed
# (3,2) --check command in memory, so the seed moves neither wall time nor RSS.
HOOK_ROOTS_POOL = (
    "L2-L3,K1-K2",
    "L1-L2,L1-L3,L2-L3,K1-K2",
    "L1-L2,L1-L3,L2-L3,K2-K3",
    "L1-L2,K1-K2,K1-K3,K2-K3",
)


def generate(workload: str, seed: int) -> list[Command]:
    """The workload's command list for one seed; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        return [
            multiplicity(2, 6, 8, check=True),
            multiplicity(3, 4, 8, check=True),
            multiplicity(4, 3, 7, check=True),
            multiplicity(3, rng.choice(MIXED_A3_POOL), check=True, fixed=False),
            branch(4, "L1-L2,L3-L4", 3, 6),
        ]
    if workload == "high-rank":
        lams = rng.sample(A6_LAMBDA_POOL, A6_QUERIES)
        return [multiplicity(7, 1, 8)] + [
            multiplicity(6, 1, 8, lam=lam, fixed=False) for lam in lams
        ]
    if workload == "hooks":
        return [
            hook((2, 2), 3, 7, check=True),
            hook((3, 2), 2, 8, check=True),
            hook((3, 3), 2, 7),
            hook((3, 3), 2, 7, roots=rng.choice(HOOK_ROOTS_POOL), fixed=False),
        ]
    if workload == "verify":
        return [VERIFY]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def all_commands() -> list[Command]:
    """Every command any seed of any workload can produce, plus the setup launch."""
    out = [SETUP]
    for workload in WORKLOADS:
        for cmd in generate(workload, 0):
            if cmd.fixed:
                out.append(cmd)
    out += [multiplicity(3, t, check=True, fixed=False) for t in MIXED_A3_POOL]
    out += [multiplicity(6, 1, 8, lam=lam, fixed=False) for lam in A6_LAMBDA_POOL]
    out += [hook((3, 3), 2, 7, roots=r, fixed=False) for r in HOOK_ROOTS_POOL]
    return out
