"""The software image digest."""

from __future__ import annotations

import functools
import hashlib


@functools.lru_cache(maxsize=128)
def digest_for(version: int) -> str:
    """Checksum of the (nominal) software image for a version.

    Only equality is ever tested, so the image is stood in for by its
    version tag.  A run sees a handful of versions, so each md5 is
    computed once and the (immutable) string reused.
    """
    return hashlib.md5(b"software-image:%d" % version).hexdigest()
