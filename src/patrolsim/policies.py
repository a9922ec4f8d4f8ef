"""Local patrolling policies: the decision kernel over flat per-element
state lists, and the tie-break resolvers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class PolicyKind(Enum):
    LRV_V = "lrv-v"   # least recently visited neighbor vertex
    LRV_E = "lrv-e"   # least recently traversed incident edge
    LFV_V = "lfv-v"   # least frequently visited neighbor vertex
    LFV_E = "lfv-e"   # least frequently traversed incident edge
    RANDOM = "random"

    @staticmethod
    def parse(name: str) -> "PolicyKind":
        key = name.strip().lower().replace("_", "-")
        for kind in PolicyKind:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown policy {name!r}")


class IsolatedVertexError(ValueError):
    """A robot has nowhere to move."""


class ScriptExhaustedError(ValueError):
    """A SCRIPTED tie-break ran out of choice indices."""


class ScriptUnusedError(ValueError):
    """A run ended with SCRIPTED choice indices left unread."""


class ScriptChoiceError(ValueError):
    """A SCRIPTED choice index fell outside the tied set."""


@dataclass(frozen=True)
class TieBreakSpec:
    """Declarative tie-break rule; ``make()`` yields a fresh stateful
    resolver so that repeated runs of the same config are identical."""

    kind: str  # lowest_id | seeded_random | scripted
    seed: int | None = None
    script: tuple[int, ...] | None = None

    @staticmethod
    def lowest_id() -> "TieBreakSpec":
        return TieBreakSpec("lowest_id")

    @staticmethod
    def seeded_random(seed: int) -> "TieBreakSpec":
        return TieBreakSpec("seeded_random", seed=seed)

    @staticmethod
    def scripted(indices) -> "TieBreakSpec":
        return TieBreakSpec("scripted", script=tuple(int(i) for i in indices))

    def make(self):
        if self.kind == "lowest_id":
            return LowestId()
        if self.kind == "seeded_random":
            if self.seed is None:  # Random(None) would seed from the OS
                raise ValueError("seeded_random tie-break needs a seed")
            return SeededRandom(self.seed)
        if self.kind == "scripted":
            return Scripted(self.script or ())
        raise ValueError(f"unknown tie-break kind {self.kind!r}")


class LowestId:
    unread = 0

    def choose(self, n_tied: int) -> int:
        return 0


class SeededRandom:
    unread = 0

    def __init__(self, seed: int):
        self._getrandbits = random.Random(seed).getrandbits

    def choose(self, n_tied: int) -> int:
        """``Random(seed).randrange(n_tied)`` for ``n_tied >= 1``, drawn as
        CPython 3.10-3.13 draws it but without its argument handling."""
        r, bits = n_tied, n_tied.bit_length()
        while r >= n_tied:
            r = self._getrandbits(bits)
        return r


class Scripted:
    def __init__(self, indices):
        self._indices = list(indices)
        self._cursor = 0

    @property
    def unread(self) -> int:
        """Choice indices not consumed yet."""
        return len(self._indices) - self._cursor

    def choose(self, n_tied: int) -> int:
        if self._cursor >= len(self._indices):
            raise ScriptExhaustedError(
                f"script exhausted after {self._cursor} choices")
        idx = self._indices[self._cursor]
        self._cursor += 1
        if not (0 <= idx < n_tied):
            raise ScriptChoiceError(
                f"choice {idx} out of range for tied set of {n_tied}")
        return idx


# Exceeds every key: rounds and counts are small non-negative ints, -1 is
# "never".
_NO_KEY = 1 << 62


def decision_keys(policy: PolicyKind, n: int, vlast: list[int],
                  vcnt: list[int], elast: list[int], ecnt: list[int]):
    """``(keys, slot)`` for ``tied_entries``: the policy minimizes
    ``keys[entry[slot]]`` over the entries ``(neighbor, edge, arc)`` of
    the current vertex in ``Graph.adj``.

    ``vlast``/``elast`` hold the last visit/traversal round (-1 for never,
    which precedes every round) and ``vcnt``/``ecnt`` the counts; the key
    list returned is one of them, so it tracks the live state.  RANDOM
    minimizes a constant over the ``n`` vertices: every entry ties.

    Vertex rules break ties by neighbor id and edge rules by edge id.  A
    ``Graph``'s adjacency lists ascend in both at once: edges are numbered
    in lexicographic order of ``(min, max)``, so at vertex x the edges to
    smaller neighbors (u, x) come first, ordered by u, then those to larger
    neighbors (x, v), ordered by v.  One adjacency serves every policy.
    """
    if policy is PolicyKind.LRV_V:
        return vlast, 0
    if policy is PolicyKind.LFV_V:
        return vcnt, 0
    if policy is PolicyKind.LRV_E:
        return elast, 1
    if policy is PolicyKind.LFV_E:
        return ecnt, 1
    if policy is PolicyKind.RANDOM:
        return [0] * n, 0
    raise ValueError(f"unhandled policy {policy}")  # pragma: no cover


def tied_entries(entries, keys: list[int], slot: int) -> list:
    """The entries of one ``Graph.adj`` list, ``(neighbor, edge, arc)``,
    that minimize ``keys[entry[slot]]``, in their given order, as a new
    list; empty for no entries.  It runs once per search node, and once
    per robot move at a vertex of other than three entries: ``engine.step``
    decides three entries itself, with the same comparisons.

    Two and three entries, the degrees of a triangulation dual's boundary
    and inner triangles, take straight-line comparisons; other sizes take
    the loop.  Both return the same list."""
    n = len(entries)
    if n == 3:
        a, b, c = entries
        ka, kb, kc = keys[a[slot]], keys[b[slot]], keys[c[slot]]
        if ka < kb:
            if ka < kc:
                return [a]
            return [a, c] if ka == kc else [c]
        if kb < ka:
            if kb < kc:
                return [b]
            return [b, c] if kb == kc else [c]
        if ka < kc:
            return [a, b]
        return [a, b, c] if ka == kc else [c]
    if n == 2:
        a, b = entries
        ka, kb = keys[a[slot]], keys[b[slot]]
        if ka < kb:
            return [a]
        return [b] if kb < ka else [a, b]
    best = _NO_KEY
    tied = []
    for entry in entries:
        k = keys[entry[slot]]
        if k < best:
            best = k
            tied = [entry]
        elif k == best:
            tied.append(entry)
    return tied
