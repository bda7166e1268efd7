"""Deterministic random streams for battles and seed derivation.

Draws are produced in counter mode from SHA-256, so a stream's full state
is just (seed, position).  That makes streams trivially serializable,
replayable from any recorded position, and identical across platforms
and Python versions.
"""

from __future__ import annotations

import hashlib
import struct

_sha256 = hashlib.sha256
# The first eight bytes of a digest as a big-endian integer, read in place.
_read_u64 = struct.Struct(">Q").unpack_from


def stable_hash64(*parts: object) -> int:
    """Stable 64-bit hash of a tuple of printable parts.

    Used wherever a derived seed must not change across runs or machines
    (per-match seeds, per-decision sub-seeds).  Python's builtin ``hash``
    is randomized per process and is never used for this.
    """
    return text_hash64("\x1f".join(str(p) for p in parts))


def text_hash64(text: str) -> int:
    """stable_hash64 of parts already joined: the first eight bytes, big-endian,
    of SHA-256 over the UTF-8 text."""
    return _read_u64(_sha256(text.encode("utf-8")).digest())[0]


def first_draw(seed: int) -> int:
    """Draw 0 of SeededStream(seed), without building the stream."""
    return _read_u64(_sha256(f"{seed}:0".encode()).digest())[0]


class SeededStream:
    """Counter-mode RNG: the i-th draw depends only on (seed, i).

    Draw i is the first eight bytes, big-endian, of SHA-256 over
    f"{seed}:{i}".encode(); the seed's part of that text is encoded once.
    """

    def __init__(self, seed: int, position: int = 0) -> None:
        self._seed = seed
        self.position = position
        self._prefix = f"{seed}:".encode()

    @property
    def seed(self) -> int:
        """Read-only: the encoded prefix is the seed's for the stream's life."""
        return self._seed

    def _next_u64(self) -> int:
        digest = _sha256(self._prefix + f"{self.position}".encode()).digest()
        self.position += 1
        return _read_u64(digest)[0]

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._next_u64() % (high - low + 1)

    def percent_roll(self, percent: int) -> bool:
        """True with probability percent/100, using one integer draw."""
        return self.randint(1, 100) <= percent

    def coin(self) -> int:
        """0 or 1."""
        return self.randint(0, 1)

    def choice_index(self, length: int) -> int:
        """Uniform index into a sequence of the given length."""
        if length <= 0:
            raise ValueError("cannot choose from an empty sequence")
        return self.randint(0, length - 1)

    def __repr__(self) -> str:
        return f"SeededStream(seed={self.seed}, position={self.position})"
