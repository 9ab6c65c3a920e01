"""CSV lines ``"%d,%s,%.17g,%.17g\\n"`` of numpy columns, byte for byte as ``%``.

A value v with ``1e-20 <= |v| < 1e15`` takes a numpy fast path: its exact
decimal exponent K from ``searchsorted``, ``10**(16 - K) = H + L`` exactly in
two doubles, ``|v| * H = P + E`` exactly by Dekker's TwoProduct, and the
fraction ``t = E + |v| * L`` with an error below ``2**-47`` (``|E| <= 8`` is
exact; ``|v| * L < 12`` and the sum round once each, below 32).  Its 17 digits
``P + rint(t)`` count only where ``t`` is farther than ``2**-30`` from a
half-integer and they are below ``10**17``.  Every other value (zero, nan,
inf, subnormals, values out of range, near-ties) goes through ``'%.17g' % v``.
Each run of equal bit patterns in a column is formatted once, and every field
is written into one fixed-width uint8 row per line.
"""

from fractions import Fraction
import math

import numpy as np

# lowest double at or above 10**K, K = -20 .. 15: |v| in [_LOW[i-1], _LOW[i]) has K = i - 21
_LOW = np.array([x if Fraction(x) >= Fraction(10) ** k else math.nextafter(x, math.inf)
                 for k in range(-20, 16) for x in [float(Fraction(10) ** k)]])
_FAST = np.array([False] + [True] * 35 + [False])
# H + L = 10**s, s = 37 - i, for the searchsorted index i in 1 .. 35 (0 and 36 pad)
_H = np.array([float(10 ** (37 - i)) if _FAST[i] else 1.0 for i in range(37)])
_L = np.array([float(10 ** (37 - i) - int(h)) if _FAST[i] else 0.0 for i, h in enumerate(_H)])
_HH = _H * 134217729.0 - (_H * 134217729.0 - _H)  # Veltkamp split by 2**27 + 1
_HL = _H - _HH
_QUAD = np.frombuffer(b"".join(b"%04d" % q for q in range(10000)), np.uint32)  # 4 digits


def _keep(neg: bool, k: int, m: int) -> bytes:
    # which bytes of the row "-", "0.000", 17 digits, ".", 17 digits, "e-dd" make the %.17g
    lead = 1 if k < -4 else max(k + 1, 0)  # digits before the point
    pre = 1 - k if -4 <= k < 0 else 0
    return bytes([neg, *(j < pre for j in range(5)), *(j < lead for j in range(17)),
                  m > lead > 0, *(lead <= j < m for j in range(17)), *[k < -4] * 4])


# row (v < 0) * 595 + (i - 1) * 17 + m - 1 for the searchsorted index i; the last keeps none
_KEEP = np.frombuffer(b"".join(_keep(neg, k, m) for neg in (False, True) for k in range(-20, 15)
                               for m in range(1, 18)) + bytes(45), np.uint8).reshape(-1, 45)
_BODY = np.frombuffer(b"-0.000.", np.uint8)
_EXP = np.array([b"e-%02d" % max(21 - i, 0) for i in range(37)]).view(np.uint8).reshape(-1, 4)


def _digits(u: np.ndarray, groups: int) -> np.ndarray:
    """ASCII digits of integers ``0 <= u < 10**(4 * groups)``, zero-padded."""
    quads = np.empty((len(u), groups), np.intp)
    for j in range(groups - 1, -1, -1):
        u, quads[:, j] = np.divmod(u, 10000)
    return _QUAD[quads].view(np.uint8)


def _floats(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` padded with NUL bytes into the 45-byte rows of
    ``out``.  Each run of equal bit patterns is formatted once: a descent's
    loss stalls for many rows, while ``0.0``, ``-0.0`` and distinct NaNs differ."""
    pattern = v.view(np.int64)
    first = np.empty(len(v), bool)  # the first row of each run
    first[0] = True
    np.not_equal(pattern[1:], pattern[:-1], out=first[1:])
    v = v[first]
    x = np.abs(v)
    i = np.searchsorted(_LOW, x, side="right")
    fast = _FAST[i]
    x[~fast] = 1.0  # keeps every product finite
    p, c = x * _H[i], x * 134217729.0
    xh = c - (c - x)
    xl = x - xh
    t = ((xh * _HH[i] - p) + xh * _HL[i] + xl * _HH[i]) + xl * _HL[i] + x * _L[i]
    n = np.rint(t)
    fast &= (np.abs(t - n) < 0.5 - 2.0 ** -30) & (p + n < 1e17)  # D >= 10**17 rounds to >= 1e17
    digits = _digits(p.astype(np.int64) + n.astype(np.int64), 5)[:, 3:]
    m = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)  # significant digits
    body = np.empty((len(v), 45), np.uint8)
    body[:, :6] = _BODY[:6]
    body[:, 6:23] = body[:, 24:41] = digits
    body[:, 23] = _BODY[6]
    body[:, 41:] = _EXP[i]
    row = (v < 0) * 595 + (i - 1) * 17 + m - 1
    slow = np.flatnonzero(~fast)
    row[slow] = -1
    body *= np.take(_KEEP, row, axis=0)
    # slow rows hold '%.17g' % v; v already holds one row per run of equal bits
    text = np.array(["%.17g" % y for y in v[slow].tolist()], "S24")
    body[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    out[:] = np.take(body, first.cumsum() - 1, axis=0)


def csv_lines(n_or_k, mode, value, stderr) -> bytes:
    """The lines of four equal-length columns, not empty; n_or_k is above
    -2**63 and the mode labels are ASCII.  Each line is a fixed-width uint8
    row, NUL-padded per field."""
    n = np.asarray(n_or_k, np.int64)
    u = np.abs(n)
    digits = _digits(u, (len(str(int(u.max()))) + 3) // 4)
    digits[:, :-1] *= (digits[:, :-1] != 48).cumsum(axis=1, dtype=np.uint8) > 0  # leading 0s
    codes = np.ascontiguousarray(mode, dtype=str).view(np.uint32).reshape(len(n), -1)
    if codes.max() > 127:
        raise ValueError("mode labels must be ASCII")
    d, w = digits.shape[1], codes.shape[1]
    # "-", digits, ",", mode, ",", value, ",", stderr, "\n" in one row per line
    line = np.empty((len(n), d + w + 95), np.uint8)
    line[:, 0] = (n < 0) * 45
    line[:, 1:d + 1] = digits
    line[:, d + 1] = line[:, d + w + 2] = line[:, d + w + 48] = 44
    line[:, d + 2:d + w + 2] = codes
    _floats(np.asarray(value, np.float64), line[:, d + w + 3:d + w + 48])
    _floats(np.asarray(stderr, np.float64), line[:, d + w + 49:d + w + 94])
    line[:, -1] = 10
    return line.tobytes().translate(None, b"\0")
