"""The text of CSV trajectory rows: the encoder behind ``simulate``'s CSV
writers, one block of records at a time (``simulate._csv_rows``).

It lives apart from :mod:`.simulate` because a module's source is compiled
at import when no bytecode is cached, and that compile's peak memory grows
with the module: it is part of every run's peak RSS.
"""

import functools

import numpy as np

# a block with at most this many distinct values gets their table rows from
# one comparison per value past the first, others from a binary search
_FEW_VALUES = 4


@functools.cache
def _digit_groups() -> np.ndarray:
    # the text of 0..9999 as 4-byte rows, built on first use from uint8
    # arrays (no larger scratch than the table): row 0 is four NULs, 1 + i
    # is i NUL-padded on the left ("\0\0\0" "7") and 10**4 + 1 + i is i
    # zero-padded ("0007")
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    lead = np.logical_and.accumulate(digits == 0, axis=1)  # leading zeros
    lead[:, 3] = False  # 0 keeps its one digit
    digits += ord("0")
    table = np.concatenate([np.zeros((1, 4), np.uint8), np.where(lead, 0, digits), digits])
    table.flags.writeable = False
    return table


def _put(m: np.ndarray, end: int, f: int, src: np.ndarray, idx, room: int = 0) -> None:
    # m[:, end - f : end] = the last f bytes of the rows idx of the byte
    # table src (idx a scalar: that row in every row of m), as whole words
    # of 1, 2, 4 or 8 bytes seen through unaligned views of m and src: one
    # word when a power of two >= f fits in src's row and in the room bytes
    # left of the field (which the caller writes later), else the widest
    # word that fits in f, at offsets that cover the field, the last
    # overlapping its neighbour.  A word is one gather and one strided copy.
    c = src.shape[1]
    s = 1 << (f - 1).bit_length()
    if s > 8 or s - f > min(room, c - f):
        s = 1 << min(3, f.bit_length() - 1)
    word = np.dtype(f"<u{s}")
    for o in [f - s] if s >= f else sorted({*range(0, f - s + 1, s), f - s}):
        col = src[:, c - f + o : c - f + o + s].view(word)[:, 0]
        # numpy fills an unaligned view from a scalar several times slower
        # than it copies an array into it
        words = col.take(idx) if np.ndim(idx) else np.full(len(m), col[idx])
        m[:, end - f + o : end - f + o + s].view(word)[:, 0] = words


def _put_decimal(m: np.ndarray, end: int, d: int, mag: np.ndarray, lo: int) -> None:
    # m[:, end - d : end] = the decimal text of mag (all below 10**d, the
    # least lo), right-aligned and NUL-padded, from 4-digit groups: the
    # group of remainder r holding the digits k.. from the right is
    # _digit_groups row r + 10**4 * (digits left of it) + (a digit in or
    # left of it), so it is zero-padded inside the number, NUL-padded as
    # its leading group, NULs left of that, and "0" for 0.  A term that is
    # the same in every row is an offset into the table, not an array.
    groups = _digit_groups()
    q = mag
    for k in range(0, d, 4):
        cur = r = q  # mag // 10**k
        off = 0
        if k + 4 < d:
            q = cur // 10**4
            r = q * 10**4
            np.subtract(cur, r, out=r)
            if lo >= 10 ** (k + 4):
                off += 10**4
            else:
                more = np.minimum(q, 1)
                more *= 10**4
                r += more
        if k == 0 or lo >= 10**k:
            off += 1
        else:  # k > 0: r is made here, no view of the caller's array
            r += np.minimum(cur, 1)
        _put(m, end - k, min(4, d - k), groups[off:], r.view(np.int64))


def _csv_rows(ns: np.ndarray, lq: np.ndarray, rq: np.ndarray) -> bytes | np.ndarray:
    # The rows as bytes or a uint8 array.  They are laid out in a byte matrix of
    # fixed-width fields, each as wide as the block's widest text and NUL
    # where a text is shorter: a sign column if any n < 0, the d digits of
    # the largest |n|, then ",lq" and ",rq\n" in w + 1 and w + 2 bytes.  A
    # field is written as one or two words per row through views of the
    # matrix (_put), so it costs a few numpy calls whatever the digits and
    # bytes it holds.  Calls on a block are too short for two worker
    # threads to overlap, so their number, not their size, sets the time.
    # Fields are written right to left, so a word may spill into the field
    # left of its own.  bytes.translate drops the NULs (ASCII text holds
    # none), in about two thirds of a boolean mask's time; a block whose
    # texts all fill their fields needs neither, and its matrix is the text.
    rows = len(ns)

    # the block's distinct bit patterns, repr'd, as table rows of 7 NULs
    # (room for a word to spill into), "," + repr + NULs + "\n"
    bits = np.concatenate([lq, rq]).view(np.uint64)
    if bits.min() == bits.max():
        keys = bits[:1]
    else:
        keys = np.sort(bits)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    reprs = [repr(v).encode("ascii") for v in keys.view(np.float64).tolist()]
    w = max(map(len, reprs))
    table = np.frombuffer(
        b"".join(b"\0" * 7 + b"," + t.ljust(w, b"\0") + b"\n" for t in reprs), np.uint8
    ).reshape(-1, w + 9)
    at = 0  # each value's table row: row 0 for all
    if len(keys) > _FEW_VALUES:
        at = np.searchsorted(keys, bits)
    elif len(keys) > 1:
        at = np.zeros(2 * rows, np.intp)
        for k in keys[1:]:
            at += bits >= k
    del bits, keys

    sign = int(ns.min() < 0)
    if sign:
        neg = ns < 0
        mag = ns.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
    else:
        mag = ns.view(np.uint64)
    lo, hi = int(mag.min()), int(mag.max())
    d = len(str(hi))
    wn = sign + d
    padded = sign or len(str(lo)) < d or min(map(len, reprs)) < w

    m = np.empty((rows, wn + 2 * w + 3), np.uint8)
    lq_at, rq_at = (at[:rows], at[rows:]) if np.ndim(at) else (at, at)
    _put(m, wn + 2 * w + 3, w + 2, table, rq_at, room=wn + w + 1)
    _put(m, wn + w + 1, w + 1, table[:, : w + 8], lq_at, room=wn)
    del at, lq_at, rq_at
    if sign:
        m[:, 0] = np.where(neg, ord("-"), 0)
    _put_decimal(m, wn, d, mag, lo)
    del mag
    return m.tobytes().translate(None, b"\0") if padded else m.reshape(-1)
