"""Deterministic seed fan-out.

A master seed derives independent labeled streams via blake2b, so adding an
agent or reordering unrelated draws never perturbs another stream.
"""
from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_bytes(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.digest()


def derive_int(*parts) -> int:
    return int.from_bytes(derive_bytes(*parts), "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_int(*parts))


class ChoiceResolver:
    """Resolves choose-rule witnesses as a pure function of the seed material.

    Each pick is keyed by the choose node's id, plus `base`, and its
    occurrence count within this resolver, so two structurally identical
    traversals (e.g. location analysis and execution) built from the same
    material make identical choices.  A program numbers its choose nodes
    from 0; base is its machine's offset in the run (see
    dsl.MachineProgram.choice_base).
    """

    __slots__ = ("material", "base", "_counts")

    def __init__(self, material: bytes, base: int = 0):
        self.material = material
        self.base = base
        self._counts: Dict[int, int] = {}

    def pick(self, node_id: int, n: int) -> int:
        if n <= 0:
            raise ValueError("pick needs a nonempty range")
        occ = self._counts.get(node_id, 0)
        self._counts[node_id] = occ + 1
        h = hashlib.blake2b(self.material, digest_size=8)
        h.update((node_id + self.base).to_bytes(8, "big", signed=True))
        h.update(occ.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big") % n
