"""The CLI's one table writer: format(v, ".17g") over float64 columns in numpy, byte for byte.

blocks(parts, fmt, size) renders a table given column by column, as one
or more consecutive parts, size rows at a time, as CSV lines or as JSON
row arrays joined by ",", exactly as a token-by-token writer would.  A
column is a float64 array or a categorical pair (codes, tokens) whose
tokens are encoded once.  Floats are written in two steps.

Digits.  The correctly rounded 17 significant digits N (an int64 in
[1e16, 1e17)) and the decimal exponent e10 of |v| come from the
double-double product |v| * 10**(16 - e10): a Dekker split (no FMA) times a
(hi, lo) table of 10**s built from exact integer arithmetic.  The decade
guess from log10 is corrected from the raw product, and a rounding carry to
1e17 moves the value to the next decade.  The product is off by less than
1e-14 at the last digit, so a rounding that lies more than 1e-6 away from a
tie is the one CPython's dtoa makes.  A value within 1e-6 of a tie (exact
ties occur: 1377037368961076.25 is one), or with |v| outside
[1e-280, 1e280] (subnormals included), is "unsure" and is formatted by
Python itself.

Text.  Each row of a block is a run of slots, one per column.  A float
fills four 8-byte words (32 bytes), taken from tables of byte patterns,
with NUL bytes where nothing is written:
  word 0     the sign, the "0." and "0"s of fixed notation below 1, the
             leading digit, and a "." after it in scientific notation or
             when e10 = 0, if a nonzero digit follows;
  words 1-2  the other 16 digits, one per byte, four at a time from a
             table of groups; a group followed by zero groups alone comes
             from a second table that writes its trailing zeros as NUL;
  word 3     the exponent "e+XXX" and the separator ("," between values,
             "\\n" or "],[" after a row) in its last three bytes.
The %g rules decide what is written: fixed notation for -4 <= e10 < 17,
trailing zeros stripped, at least two exponent digits.  In fixed notation
with 1 <= e10 <= 16, the first e10 of the 16 digits belong to the integer
part: their stripped zeros are put back by OR-ing "0" into those bytes, and
if a digit follows them, the 128 bits of words 1-2 above them shift up one
byte to make room for the ".", the last byte moving into word 3, whose
exponent is empty in fixed notation.  Because of that shift the buffer and
every table have explicit little-endian dtypes ("<u8", "<u4"): a byte's
place in a word is then the same on every machine.  Zeros print as "0" /
"-0", and non-finite values as "" (CSV) or null (JSON).  A categorical
value's slot is copied from its column's table: the token's bytes, NUL
padding to whole words, and the separator in the last three bytes.  One
bytes.translate per block then deletes the padding.  The tables are built
when the module is imported.
"""

import numpy as np

# Values outside [_TINY, _HUGE] go to Python; with one decade of slack the
# scale 10**(16 - e10) then stays in [_S_MIN, _S_MAX], and every partial
# product of the Dekker split stays a normal float64.
_TINY, _HUGE = 1e-280, 1e280
_S_MIN, _S_MAX = -266, 298
_SPLIT = 134217729.0  # 2**27 + 1


def _pow10_table():
    """(hi, hi_high, hi_low, lo) with hi + lo = 10**s to about 2**-106, for s in [_S_MIN, _S_MAX].

    hi is 10**s correctly rounded and lo the correctly rounded remainder,
    both from exact integer arithmetic (int / int rounds correctly);
    hi_high + hi_low is hi's Dekker split.
    """
    hi, lo = {}, {}
    p = 1  # 10**k
    for k in range(max(-_S_MIN, _S_MAX) + 1):
        hi[k] = float(p)
        lo[k] = float(p - int(hi[k]))
        if k:
            h = hi[-k] = 1 / p
            num, den = h.as_integer_ratio()  # h = num / den exactly
            lo[-k] = (den - num * p) / (den * p)
        p *= 10
    s = range(_S_MIN, _S_MAX + 1)
    hi, lo = np.array([hi[k] for k in s]), np.array([lo[k] for k in s])
    c = _SPLIT * hi
    high = c - (c - hi)
    return hi, high, hi - high, lo


_HI, _HI_HIGH, _HI_LOW, _LO = _pow10_table()

# Each value takes _WORDS "<u8" words: the sign, prefix and leading digit;
# two words of 16 digits; the exponent and separator (see the docstring).
_WORDS = 4
_U8, _U4 = np.dtype("<u8"), np.dtype("<u4")


def _words(patterns) -> np.ndarray:
    """Little-endian uint64 words holding the 8-byte rows of a uint8 array."""
    return np.ascontiguousarray(patterns, np.uint8).view(_U8).ravel()


def _group_tables():
    """By group value 0..9999: its four digits, and the same with its trailing zeros as NUL (all NUL for 0).

    Both are "<u4" words whose bytes read in order.  The four digits of a
    group index the axes of a 10x10x10x10 grid.
    """
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    kept = np.empty(digits.shape, bool)  # the digit or one after it is nonzero
    later = False
    for k in (3, 2, 1, 0):
        d = np.arange(10).reshape((10,) + (1,) * (3 - k))
        later = later | (d != 0)
        digits[..., k], kept[..., k] = d + 48, later
    return (t.view(_U4).ravel() for t in (digits, digits * kept))


_PLACES = np.arange(8)
_Q, _QT = _group_tables()
_LEAD = _words((_PLACES == 6) * (np.arange(10)[:, None] + 48))
_MINUS = _words([ord("-")] + [0] * 7)[0]
_NO_DOT = _words([255] * 7 + [0])[0]  # word 0 without the "." after the leading digit


def _e10_tables():
    """Words 0 and 3 by e10 + _E_OFF.

    Word 0: the "0." and up to three "0"s of fixed notation below 1, and
    the "." after the leading digit of scientific notation and of e10 = 0.
    Word 3: "e", the exponent's sign and at least two of its digits.
    """
    e = np.arange(-_E_OFF, _E_OFF + 1)[:, None]
    sci, ae = (e < -4) | (e >= 17), abs(e)
    prefix = ((e < 0) & ~sci) * np.select(
        [_PLACES == 1, _PLACES == 2, (_PLACES >= 3) & (_PLACES < 2 - e)], [48, 46, 48]
    ) | ((e == 0) | sci) * np.where(_PLACES == 7, 46, 0)
    exponent = sci * np.select(
        [_PLACES == 0, _PLACES == 1, (_PLACES == 2) & (ae >= 100), _PLACES == 3, _PLACES == 4],
        [ord("e"), np.where(e < 0, ord("-"), ord("+")), ae // 100 + 48, ae // 10 % 10 + 48, ae % 10 + 48],
    )
    return _words(prefix), _words(exponent)


_E_OFF = 300
_PREFIX, _EXPONENT = _e10_tables()


def _integer_tables():
    """(fill, move, dot) for fixed notation with 1 <= e10 <= 16, each indexed [w, e10 - 1] for word 1 + w.

    fill is "0" in the integer part's e10 bytes of words 1-2, move is 0xff
    in the bytes after them, and dot is "." in the first byte after them.
    """
    place, e10 = np.arange(16), np.arange(1, 17)[:, None]
    tables = ((place < e10) * 48, (place >= e10) * 255, (place == e10) * 46)
    return (np.ascontiguousarray(_words(t).reshape(16, 2).T) for t in tables)


_FILL, _MOVE, _DOT = _integer_tables()


def _scaled(a, e10):
    """The double-double (ph, pl) of a * 10**(16 - e10): Dekker's exact product a * hi, plus a * lo."""
    k = (16 - _S_MIN) - e10
    hi, bh, bl = _HI[k], _HI_HIGH[k], _HI_LOW[k]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    ph = a * hi
    return ph, (((ah * bh - ph) + ah * bl + al * bh) + al * bl) + a * _LO[k]


def _digits(a):
    """(N, e10, unsure) for positive a in [_TINY, _HUGE], rounded as CPython's dtoa rounds.

    a = N * 10**(e10 - 16) to 17 digits, N an int64 in [1e16, 1e17).
    Where unsure is set, a lies within 1e-6 of a tie and N may be off by one.
    """
    e10 = np.floor(np.log10(a)).astype(np.int64)
    ph, pl = _scaled(a, e10)
    # log10 can miss the decade next to a power of ten; the raw product tells.
    miss = np.flatnonzero((ph <= 1e16) | (ph >= 1e17))
    if miss.size:
        p, q = ph[miss], pl[miss]
        up = (p > 1e17) | ((p == 1e17) & (q >= 0.0))
        down = (p < 1e16) | ((p == 1e16) & (q < 0.0))
        e10[miss] += up.astype(np.int64) - down
        ph[miss], pl[miss] = _scaled(a[miss], e10[miss])
    # ph >= 1e16 > 2**53 is an integer; pl holds the rest of the product.
    r = np.rint(pl)
    unsure = np.abs(pl - r) >= 0.5 - 1e-6  # within 1e-6 of a tie, as |pl - r| <= 0.5
    n = ph.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(n == 10**17)
    n[carry] = 10**16
    e10[carry] += 1
    return n, e10, unsure


def _separators(cols: int, json: bool) -> np.ndarray:
    """The last word's separator bytes per column: "," between values, then "\\n" or "],[" after a row."""
    sep = np.zeros((cols, 8), np.uint8)
    sep[:, 5] = ord(",")
    sep[-1, 5:] = list(b"],[" if json else b"\n\0\0")
    return _words(sep)


def _number_slots(v: np.ndarray, sep: np.ndarray, out: np.ndarray, json: bool):
    """Fill out, a (v.size, _WORDS) "<u8" array, with the slots of the (rows, cols) float64 block v.

    sep holds the separator word of each of v's columns.
    """
    rows, cols = v.shape
    v = v.ravel()
    a = np.abs(v)
    sure = (a >= _TINY) & (a <= _HUGE)  # False for 0, subnormals and non-finite values
    n, e10, unsure = _digits(np.where(sure, a, 1.0))
    sure &= ~unsure

    # The leading digit, then four groups of four.
    # (numpy divides int64 by a constant fast, but its % is slow.)
    top = n // 10**8
    low = n - top * 10**8
    head, top4, low4 = top // 10**8, top // 10**4, low // 10**4
    g1, g2, g3, g4 = top4 - head * 10**4, top - top4 * 10**4, low4, low - low4 * 10**4

    e = e10 + _E_OFF
    out[:, 0] = _PREFIX[e] | _LEAD[head] | np.signbit(v) * _MINUS
    half = out.view(_U4)  # halves 2-5 are words 1-2, one group each
    half[:, 2], half[:, 3], half[:, 4], half[:, 5] = _Q[g1], _Q[g2], _Q[g3], _QT[g4]
    # A group followed by zero groups alone drops its trailing zeros; with
    # no digit after it, the leading digit drops its ".".
    z = np.flatnonzero(g4 == 0)
    for i, g in ((4, g3), (3, g2), (2, g1)):
        half[z, i] = _QT[g[z]]
        z = z[g[z] == 0]
    out[z, 0] &= _NO_DOT
    out.reshape(rows, cols, -1)[..., 3] = _EXPONENT[e].reshape(rows, cols) | sep

    # Fixed notation with 1 <= e10 <= 16: the integer part's zeros, then
    # the "." after it if a digit follows, the 128 bits above it moving up
    # one byte.
    at = np.flatnonzero((e10 >= 1) & (e10 <= 16))
    if at.size:
        k = e10[at] - 1
        w1, w2, w3 = out[:, 1], out[:, 2], out[:, 3]
        lo, hi = w1[at] | _FILL[0, k], w2[at] | _FILL[1, k]
        mlo, mhi = lo & _MOVE[0, k], hi & _MOVE[1, k]
        dot = (mlo | mhi) != 0
        w1[at] = (lo ^ mlo) | mlo << 8 | _DOT[0, k] * dot
        w2[at] = (hi ^ mhi) | mhi << 8 | mlo >> 56 | _DOT[1, k] * dot
        w3[at] |= mhi >> 56

    # Zeros, non-finite values and unsure values replace the number's bytes.
    special = np.flatnonzero(~sure)
    if special.size:
        x = v[special]
        out[special, :3] = 0
        out[special, 3] &= sep[special % cols]
        text = out.view(np.uint8).reshape(-1)
        base = special * (8 * _WORDS)
        zero, finite = x == 0.0, np.isfinite(x)
        text[base[zero]] = np.signbit(x[zero]) * np.uint8(ord("-"))
        text[base[zero] + 6] = ord("0")
        if json:
            text[base[~finite, None] + np.arange(4)] = np.frombuffer(b"null", np.uint8)
        for start, value in zip(base[finite & ~zero].tolist(), x[finite & ~zero].tolist()):
            token = format(value, ".17g").encode()
            text[start : start + len(token)] = np.frombuffer(token, np.uint8)


def _token_slots(tokens: list[bytes], sep: np.ndarray) -> np.ndarray:
    """One slot per token: its bytes, NUL padding, and the separator in the last word's last three bytes."""
    if any(b"\0" in t for t in tokens):
        raise ValueError("a token cannot hold a NUL byte")
    words = (max(map(len, tokens), default=0) + 3 + 7) // 8
    slots = np.zeros((len(tokens), 8 * words), np.uint8)
    for i, token in enumerate(tokens):
        slots[i, : len(token)] = np.frombuffer(token, np.uint8)
    slots = slots.view(_U8)
    slots[:, -1] |= sep
    return slots


def blocks(parts, fmt: str, size: int):
    """The rows of a table given as consecutive parts, size rows at a time: CSV lines, or JSON arrays joined by ",".

    A part is a list of columns of one length.  A column is a float64
    array, or a pair (codes, tokens): an int array of indices into a list
    of encoded tokens holding no NUL byte.  The first part fixes the
    separators, each column's kind and the token tables: a later part has
    columns of the same kinds, and its categorical columns index the first
    part's tokens.  A block never spans two parts.
    """
    json = fmt == "json"
    seps = None
    # One buffer, grown to the largest block, serves every block of every
    # part, and each block writes every word of its rows.  Word 0 is a pad
    # whose last byte opens the first JSON row.  values holds a block's
    # float columns side by side.
    buffer = np.zeros(0, _U8)
    for columns in parts:
        if seps is None:
            seps = _separators(len(columns), json)
            floats = [j for j, c in enumerate(columns) if not isinstance(c, tuple)]
            tables = {j: _token_slots(c[1], seps[j]) for j, c in enumerate(columns) if isinstance(c, tuple)}
            start = np.cumsum([0] + [tables[j].shape[1] if j in tables else _WORDS for j in range(len(columns))])
        length = len(columns[0][0] if isinstance(columns[0], tuple) else columns[0])
        if buffer.size < 1 + min(size, length) * start[-1]:
            buffer = np.zeros(1 + min(size, length) * start[-1], _U8)
            buffer.view(np.uint8)[7] = ord("[") if json else 0
            values = np.empty((min(size, length), len(floats)))
        for k in range(0, length, size):
            rows = min(size, length - k)
            out = buffer[: 1 + rows * start[-1]]
            body = out[1:].reshape(rows, start[-1])
            if floats:
                v = values[:rows]
                for i, j in enumerate(floats):
                    v[:, i] = columns[j][k : k + rows]
                if len(floats) == len(columns):  # the slots fill the rows
                    _number_slots(v, seps, body.reshape(v.size, -1), json)
                else:
                    slots = np.empty((v.size, _WORDS), _U8)
                    _number_slots(v, seps[floats], slots, json)
                    slots = slots.reshape(rows, len(floats), -1)
                    for i, j in enumerate(floats):
                        body[:, start[j] : start[j + 1]] = slots[:, i]
            for j, table in tables.items():
                body[:, start[j] : start[j + 1]] = table[columns[j][0][k : k + rows]]
            text = out.view(np.uint8)
            if json:
                text[-2:] = 0  # rows are joined, not terminated, by ","
            yield text.tobytes().translate(None, b"\0")
