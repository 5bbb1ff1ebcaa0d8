"""The four dissemination protocols as one machine with two feature flags.

flags (piggyback, token_control): FP=(False,False), FCP=(False,True),
PBP=(True,False), GCP=(True,True).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import digest_for


@dataclass(frozen=True)
class ProtocolConfig:
    piggyback: bool
    token_control: bool
    initial_tokens: int = 1  # ignored unless token_control

    def __post_init__(self):
        if self.token_control:
            if self.initial_tokens <= 0:
                raise ValueError("token_control requires a positive token budget")
        else:
            # normalize the unused budget so configs compare by behaviour
            object.__setattr__(self, "initial_tokens", 1)

    @property
    def name(self) -> str:
        return {
            (False, False): "fp",
            (False, True): "fcp",
            (True, False): "pbp",
            (True, True): "gcp",
        }[(self.piggyback, self.token_control)]


def fp() -> ProtocolConfig:
    return ProtocolConfig(piggyback=False, token_control=False)


def fcp(tokens: int) -> ProtocolConfig:
    return ProtocolConfig(piggyback=False, token_control=True, initial_tokens=tokens)


def pbp() -> ProtocolConfig:
    return ProtocolConfig(piggyback=True, token_control=False)


def gcp(tokens: int) -> ProtocolConfig:
    return ProtocolConfig(piggyback=True, token_control=True, initial_tokens=tokens)


BY_NAME = {"fp": fp, "fcp": fcp, "pbp": pbp, "gcp": gcp}


def from_name(name: str, tokens: Optional[int] = None, flag: str = "tokens") -> ProtocolConfig:
    """The config a protocol name stands for; fcp and gcp take ``tokens``.

    Raises ValueError for an unknown name, or for fcp/gcp without tokens
    (``flag`` names the missing option in that message).
    """
    if name not in BY_NAME:
        raise ValueError(f"unknown protocol {name!r}")
    if name in ("fcp", "gcp"):
        if tokens is None:
            raise ValueError(f"{flag} required for {name}")
        return BY_NAME[name](tokens)
    return BY_NAME[name]()


@dataclass(frozen=True)
class SendSoftware:
    version: int
    digest: str


@dataclass(frozen=True)
class SendBeacon:
    pass


@dataclass(frozen=True)
class UpdateLocal:
    version: int


def on_beacon(
    cfg: ProtocolConfig,
    version: int,
    tokens: int,
    remote_version: Optional[int],
) -> tuple[int, SendSoftware | SendBeacon | None]:
    """React to a received beacon; return the tokens left and the action.

    Without piggyback the remote version is unknown, so the node pushes
    its software unconditionally.  With piggyback it pushes only to older
    neighbours and pulls (by beaconing back) from newer ones.  Under
    token control every push spends a token, and none is sent without one.
    """
    if cfg.piggyback:
        # equal versions are the common case; None never equals an int
        if remote_version == version:
            return tokens, None
        if remote_version is None:
            raise AssertionError("piggyback protocol got a bare beacon")
        if remote_version > version:
            return tokens, SendBeacon()
    elif remote_version is not None:
        raise AssertionError("non-piggyback protocol got a versioned beacon")
    if cfg.token_control:
        if tokens <= 0:
            return tokens, None
        tokens -= 1
    return tokens, SendSoftware(version, digest_for(version))


def on_software(
    cfg: ProtocolConfig,
    version: int,
    tokens: int,
    payload_version: int,
    digest_ok: bool,
) -> tuple[int, int, SendBeacon | UpdateLocal | None]:
    """React to a received software copy (requested or overheard).

    Returns the node's version, its tokens and the action.  Adopting a
    newer version refills the budget to ``cfg.initial_tokens``.
    """
    if not digest_ok:
        # corrupted copy: re-request with a beacon
        return version, tokens, SendBeacon()
    if payload_version > version:
        return payload_version, cfg.initial_tokens, UpdateLocal(payload_version)
    return version, tokens, None
