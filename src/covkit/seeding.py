"""Deterministic seed derivation.

A SeedTree names random streams by a path of (label, index) pairs under a
root seed, an integer >= 0.  Deriving the same path twice yields the same
stream; sibling paths yield independent streams.  Parallel work should hand
each worker its own derived subtree so results do not depend on scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _label_digest(label: str) -> int:
    # Stable across processes, unlike hash().
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


@dataclass(frozen=True)
class SeedTree:
    """A node in the seed-derivation tree."""

    root: int
    path: tuple = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "SeedTree":
        return SeedTree(self.root, self.path + ((label, int(index)),))

    def entropy(self) -> list:
        out = [int(self.root)]
        for label, index in self.path:
            out += [_label_digest(label), index]
        return out

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.entropy()))

