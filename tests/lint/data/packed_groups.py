"""R007 fixture: packed uint32 group words behind a width gate.

Grouping events per table entry with one in-place sort packs
``key | position | outcome`` (plus a bank tag) into one uint32 word per
event.  Whether those fields fit 32 bits is a geometry decision, so the
callers gate the packing on ``key_bits + shift <= 32``: in the packing
function itself (``group_single_table``) and one call-graph hop up
(``group_banks`` over ``_pack_bank_blocks``).  R007 must accept both
gates and flag both packing sites once the gates are gone.
"""

import numpy as np


def group_single_table(stream, outcomes, key_bits):
    """One table's events in grouped order, or None when too wide."""
    n = len(outcomes)
    shift = max(1, (n - 1).bit_length()) + 1
    if key_bits + shift <= 32:
        packed = np.empty(n, dtype=np.uint32)
        np.left_shift(stream, np.uint32(shift), out=packed, casting="unsafe")
        low_word = np.empty(n, dtype=np.uint32)
        np.left_shift(np.arange(n), 1, out=low_word, casting="unsafe")
        np.bitwise_or(low_word, outcomes, out=low_word, casting="unsafe")
        np.bitwise_or(packed, low_word, out=packed)
        packed.sort()
        return packed
    return None


def _pack_bank_blocks(streams, outcomes, shift, entry_bits):
    """Per-bank ``tag | key | position | outcome`` words, each block
    sorted in place; the caller's gate makes the down-cast exact."""
    n = len(outcomes)
    low_word = np.empty(n, dtype=np.uint32)
    np.left_shift(np.arange(n), 1, out=low_word, casting="unsafe")
    np.bitwise_or(low_word, outcomes, out=low_word, casting="unsafe")
    packed = np.empty(len(streams) * n, dtype=np.uint32)
    for b, stream in enumerate(streams):
        block = packed[b * n : (b + 1) * n]
        np.left_shift(stream, np.uint32(shift), out=block, casting="unsafe")
        np.bitwise_or(block, low_word, out=block)
        if b:
            np.bitwise_or(
                block, np.uint32(b << (entry_bits + shift)), out=block
            )
        block.sort()
    return packed


def group_banks(streams, outcomes, entry_bits):
    """Every bank's events in grouped order, or None when too wide."""
    n = len(outcomes)
    shift = max(1, (n - 1).bit_length()) + 1
    key_bits = entry_bits + (len(streams) - 1).bit_length()
    if key_bits + shift <= 32:
        return _pack_bank_blocks(streams, outcomes, shift, entry_bits)
    return None
