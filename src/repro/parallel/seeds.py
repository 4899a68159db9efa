"""Deterministic per-worker / per-point seed derivation.

A campaign must give the same answer no matter how its points land on
workers. Shared RNG state (one fault injector advancing one stream as
points are visited in order) cannot cross process boundaries, so the
engine derives an *independent* seed per point from the campaign seed
and the point's stable key. The
derivation is a SHA-256 hash — not Python's ``hash()``, which is
salted per process — so every worker, every run, and every worker
*count* agrees on the stream a point sees.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]

#: Seeds are truncated to 63 bits so they stay positive ints everywhere
#: (``random.Random`` accepts arbitrary ints, but JSON manifests and
#: CLI round trips are friendlier to machine-word-sized values).
_SEED_BITS = 63


def derive_seed(base: int | None, *components: object) -> int:
    """A stable 63-bit seed from a base seed and labelling components.

    Args:
        base: the campaign-level seed (None hashes as the string
            ``"None"`` — still deterministic).
        components: any values with stable ``str()`` forms, typically a
            campaign point's checkpoint key.

    Returns:
        A non-negative int; equal inputs give equal outputs on every
        platform and process.
    """
    text = "\x1f".join(str(c) for c in (base, *components))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)
