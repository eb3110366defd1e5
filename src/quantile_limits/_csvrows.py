"""The text of CSV trajectory rows: the encoder behind ``simulate``'s CSV
writers, one block of records at a time.  One matrix builder
(``_csv_matrix``) lays out the rows from the ``n`` texts (``_n_field``) and
a row of a value table (``_value_table``) per quantile: ``run_replicated``
indexes a table of the support's atoms by the quantiles' atom indices, and
``_csv_rows`` one of a block's distinct floats by their bit patterns.

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


def _words(src: np.ndarray, f: int, idx, rows: int, room: int = 0):
    # the last f bytes of the rows idx of the byte table src (idx a scalar:
    # that row, rows times; None: every row in order), as columns of whole
    # words of 1, 2, 4 or 8 bytes, each with its offset in the field: one
    # word when a power of two >= f fits in src's row and in the room bytes
    # left of the field (which the caller writes later), else the widest
    # word that fits in f, at offsets that cover the field, the last
    # overlapping its neighbour.  A word is one gather, or one copy, of an
    # unaligned view of src, made as it is asked for.
    c = src.shape[1]
    s = 1 << (f - 1).bit_length()
    if s > 8 or s - f > min(room, c - f):
        s = 1 << min(3, f.bit_length() - 1)
    word = np.dtype(f"<u{s}")
    for o in [f - s] if s >= f else sorted({*range(0, f - s + 1, s), f - s}):
        col = src[:, c - f + o : c - f + o + s].view(word)[:, 0]
        if idx is None:
            # numpy copies between two unaligned strided views several
            # times slower than from a contiguous array into one
            yield o, col.copy()
        elif np.ndim(idx):
            yield o, col.take(idx)
        else:  # and fills one from a scalar slower than it copies an array
            yield o, np.full(rows, col[idx])


def _put(m: np.ndarray, end: int, f: int, words) -> None:
    # m[:, end - f : end] = the field of _words, each word one strided copy
    # into an unaligned view of m
    for o, w in words:
        m[:, end - f + o : end - f + o + w.itemsize].view(w.dtype)[:, 0] = w
        del w  # before the next word is made


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
        f = min(4, d - k)
        _put(m, end - k, f, _words(groups[off:], f, r.view(np.int64), len(m)))


def _n_field(ns: np.ndarray) -> tuple[list, int, bool]:
    # the decimal texts of ns, right-aligned in a field as wide as the
    # widest (a sign column if any n < 0, then the digits of the largest
    # |n|) and NUL where a text is shorter: the field's _words, its width,
    # and whether any text is shorter
    sign = int(ns.min() < 0)
    if sign:
        neg = ns < 0
        mag = ns.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
    else:
        mag = ns.view(np.uint64)
    lo, hi = int(mag.min()), int(mag.max())
    d = len(str(hi))
    field = np.empty((len(ns), sign + d), np.uint8)
    if sign:
        field[:, 0] = np.where(neg, ord("-"), 0)
    _put_decimal(field, sign + d, d, mag, lo)
    return list(_words(field, sign + d, None, len(ns))), sign + d, bool(sign) or len(str(lo)) < d


def _value_table(values: list) -> tuple[np.ndarray, bool]:
    # the reprs of the floats values as table rows of 7 NULs (room for a
    # word to spill into), "," + repr + NULs + "\n", all as wide as the
    # widest, and whether any repr is shorter
    reprs = [repr(v).encode("ascii") for v in values]
    w = max(map(len, reprs))
    table = np.frombuffer(
        b"".join(b"\0" * 7 + b"," + t.ljust(w, b"\0") + b"\n" for t in reprs), np.uint8
    ).reshape(-1, w + 9)
    return table, min(map(len, reprs)) < w


def _csv_matrix(n_field: tuple, lq_at, rq_at, value_table: tuple) -> bytes | np.ndarray:
    # The rows of a block as bytes or a uint8 array, from the n texts of
    # _n_field and, for each quantile, its row of the _value_table (an
    # array, or a scalar for all).  They are laid out in a byte matrix of
    # fixed-width fields, each as wide as the block's widest text and NUL
    # where a text is shorter: the n field, then ",lq" and ",rq\n" in w + 1
    # and w + 2 bytes.  A field is written as one or two words per row
    # through views of the matrix (_put), so it costs a few numpy calls
    # whatever the digits and bytes it holds.  Calls on a block are too
    # short for two worker threads to overlap, so their number, not their
    # size, sets the time.  Fields are written right to left, so a word may
    # spill into the field left of its own.  bytes.translate drops the NULs
    # (ASCII text holds none), in about two thirds of a boolean mask's time;
    # a block whose texts all fill their fields needs neither, and its
    # matrix is the text.
    (n_words, wn, n_padded), (table, ragged) = n_field, value_table
    rows = len(n_words[0][1])
    w = table.shape[1] - 9
    m = np.empty((rows, wn + 2 * w + 3), np.uint8)
    _put(m, wn + 2 * w + 3, w + 2, _words(table, w + 2, rq_at, rows, room=wn + w + 1))
    _put(m, wn + w + 1, w + 1, _words(table[:, : w + 8], w + 1, lq_at, rows, room=wn))
    _put(m, wn, wn, n_words)
    if not (n_padded or ragged):
        return m.reshape(-1)
    text = m.tobytes()
    del m  # before the text without NULs is made
    return text.translate(None, b"\0")


def _csv_rows(ns: np.ndarray, lq: np.ndarray, rq: np.ndarray) -> bytes | np.ndarray:
    # The rows of a block of floats (_csv_matrix): each value's table row is
    # that of its float64 bit pattern among the block's distinct ones, so
    # -0.0, NaN and values off any support keep their exact text.
    rows = len(ns)
    bits = np.concatenate([lq, rq]).view(np.uint64)
    if bits.min() == bits.max():
        keys = bits[:1]
    else:
        keys = np.sort(bits)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    table = _value_table(keys.view(np.float64).tolist())
    at = 0  # each value's table row: row 0 for all
    if len(keys) > _FEW_VALUES:
        at = np.searchsorted(keys, bits)
    elif len(keys) > 1:
        at = np.zeros(2 * rows, np.intp)
        for k in keys[1:]:
            at += bits >= k
    del bits, keys
    lq_at, rq_at = (at[:rows], at[rows:]) if np.ndim(at) else (at, at)
    return _csv_matrix(_n_field(ns), lq_at, rq_at, table)
