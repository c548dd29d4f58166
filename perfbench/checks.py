"""Output checks: recorded stdout digests and the Pieri-fold oracle.

A command passes when it exits 0, its stdout hashes to the digest recorded
for it at the baseline commit, and, for ordinary multiplicity queries, every
value agrees with `oracle.schur_expansion_pieri`, which folds one-row
insertions and shares no cached product with the shift route.  Hook outputs
rely on their `--check` flag (exit 3 on an oracle mismatch) and the digests.
"""

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    """Command line -> sha256 of its stdout at the baseline commit."""
    return json.loads(DIGESTS_PATH.read_text())["digests"]


class PieriCheck:
    """Independent multiplicity values, one Pieri fold per (spins, rank)."""

    def __init__(self, oracle_module):
        self._oracle = oracle_module
        self._memo = {}

    def expected(self, spins, rank):
        key = (tuple(spins), rank)
        if key not in self._memo:
            self._memo[key] = {
                lam: c for lam, c in self._oracle.schur_expansion_pieri(spins, rank).items() if c
            }
        return self._memo[key]

    def agrees(self, cmd, stdout: bytes) -> bool:
        if cmd.kind != "multiplicity":
            return True
        doc = json.loads(stdout)
        want = self.expected(cmd.spins, cmd.rank)
        if cmd.lam is None:
            got = {tuple(e["lambda"]): int(e["mu"]) for e in doc["entries"]}
            return got == want
        return int(doc["mu"]) == want.get(tuple(cmd.lam), 0)


def failure(cmd, returncode, stdout, digests, pieri) -> str | None:
    """Reason the command failed, or None when its output is correct."""
    if returncode != 0:
        return f"exit {returncode}"
    want = digests.get(cmd.key)
    if want is None:
        return "no recorded digest"
    if sha256(stdout) != want:
        return "digest mismatch"
    if pieri is not None and not pieri.agrees(cmd, stdout):
        return "disagrees with the Pieri oracle"
    return None
