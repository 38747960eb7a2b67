"""The one short-digest helper.

Cache-key components, certificate fingerprints and benchmark series ids
are all "the first ``length`` hex digits of the SHA-256 of some canonical
text".  (The CRC32 checksums in :mod:`repro.runtime` are wire-integrity
checks on envelopes and schedules, not fingerprints.)
"""

import hashlib

__all__ = ["fingerprint"]


def fingerprint(text: str, length: int = 16) -> str:
    """The first ``length`` hex digits of ``sha256(text)``."""
    return hashlib.sha256(text.encode()).hexdigest()[:length]
