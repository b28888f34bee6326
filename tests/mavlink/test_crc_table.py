"""The table-driven ``x25_crc`` equals the bitwise CRC-16/MCRF4XX.

The reference below is the per-bit-group form from the MAVLink C
library's ``crc_accumulate``; the codec now folds each byte with one
lookup in a 256-entry table.  Every frame the stack sends or accepts is
checksummed, so the two must agree on every input.
"""

import random

import pytest

from repro.mavlink.codec import x25_crc
from repro.mavlink.messages import MESSAGE_REGISTRY


def reference_crc(data: bytes, crc: int = 0xFFFF) -> int:
    for byte in data:
        tmp = byte ^ (crc & 0xFF)
        tmp = (tmp ^ (tmp << 4)) & 0xFF
        crc = ((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF
    return crc


SEEDS = (0xFFFF, 0x0000, 0x1234, 0xA5C3, 0x00FF, 0xFF00)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_single_byte(seed):
    for byte in range(256):
        assert x25_crc(bytes([byte]), seed) == reference_crc(bytes([byte]),
                                                             seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_payload_returns_the_seed(seed):
    assert x25_crc(b"", seed) == reference_crc(b"", seed) == seed


def test_check_value():
    assert x25_crc(b"123456789") == reference_crc(b"123456789") == 0x6F91


def test_random_payloads_with_every_crc_extra():
    rng = random.Random(1234)
    extras = sorted({cls.CRC_EXTRA for cls in MESSAGE_REGISTRY.values()})
    assert len(extras) > 1
    for _ in range(1000):
        payload = bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 262)))
        crc = x25_crc(payload)
        assert crc == reference_crc(payload)
        for extra in extras:
            # How the codec seals a frame: the body, then CRC_EXTRA.
            assert (x25_crc(bytes([extra]), crc)
                    == reference_crc(bytes([extra]), reference_crc(payload)))
