"""Shared vocabulary: node ids, versions, token budgets, messages, node state."""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Optional

NodeId = int
VersionNumber = int

BEACON = "beacon"
SOFTWARE = "software"


def newer(a: VersionNumber, b: VersionNumber) -> bool:
    """True iff version a is strictly newer than b."""
    return a > b


@dataclass(frozen=True)
class TokenBudget:
    remaining: int
    initial: int

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError("initial token count must be positive")
        if not 0 <= self.remaining <= self.initial:
            raise ValueError("remaining must be in [0, initial]")


def spend_token(t: TokenBudget) -> TokenBudget:
    """Consume one token. Calling with an empty budget is a simulator bug."""
    if t.remaining <= 0:
        raise AssertionError("spend_token called with exhausted budget")
    return TokenBudget(t.remaining - 1, t.initial)


def refill_tokens(t: TokenBudget) -> TokenBudget:
    return TokenBudget(t.initial, t.initial)


@functools.lru_cache(maxsize=128)
def digest_for(version: VersionNumber) -> str:
    """Checksum of the (nominal) software image for a version.

    Only equality is ever tested, so the image is stood in for by its
    version tag.  A run sees a handful of versions, so each md5 is
    computed once and the (immutable) string reused.
    """
    return hashlib.md5(b"software-image:%d" % version).hexdigest()


@dataclass(frozen=True)
class Message:
    kind: str  # BEACON or SOFTWARE
    sender: NodeId
    payload_version: Optional[VersionNumber] = None
    payload_digest: Optional[str] = None

    def __post_init__(self):
        if self.kind == SOFTWARE:
            if self.payload_version is None or self.payload_digest is None:
                raise ValueError("software messages carry version and digest")
        elif self.kind != BEACON:
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass
class NodeState:
    id: NodeId
    version: VersionNumber = 0
    tokens: TokenBudget = field(default_factory=lambda: TokenBudget(1, 1))
    position: Optional[tuple[float, float]] = None
    motion: object = None  # owning mobility.NodeMotion, if geometric
    next_beacon_at: int = 0
