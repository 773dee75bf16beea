"""CSV text of a float array, each value exactly as ``format_real`` writes it.

``"%.17g" % x`` costs CPython's dtoa its bignum path, about 0.8 us a value.
For 1 <= |x| < 1e15 this module gets the same text for a whole block of
values at once, from integer arithmetic on numpy arrays:

* ``|x| = m * 2**e`` with a 53-bit integer ``m``.  The decade ``E``
  (``10**E <= |x| < 10**(E + 1)``) is ``floor(k * log10(2))`` of the binary
  exponent ``k``, corrected once by an exact comparison with ``10**(E + 1)``.
* The 17 significant digits are ``x * 10**(16 - E) = m * 5**(16 - E) *
  2**(e + 16 - E)``, rounded half to even.  The product ``m * 5**(16 - E)``
  (at most 91 bits) is formed exactly in two ``uint64`` words and shifted
  right by ``-(e + 16 - E)``, 1 to 36 bits; the bits shifted out decide the
  rounding.
* ``"%.17g"`` writes such a value in fixed notation: its ``E + 1`` integer
  digits, then a point and the digits after it, when one of them is not 0,
  up to the last that is not.

Every other value (zeros, subnormals, magnitudes below 1 or from 1e15 up,
inf and nan) is written by ``"%.17g"`` itself, the call ``format_real``
makes; a block with no value in range skips the array path altogether.
Only integer arithmetic and exact comparisons are used, so the text of given
doubles does not depend on the CPU.

A block's text is laid out in a workspace of byte slots (see below) only as
wide as the block's largest decade needs, and every other array is reused
in place or dropped before the workspace is copied out.  A block of
1 024 x 3 cap coordinates peaks at about 0.2 MB under ``tracemalloc``.
"""

import numpy as np

_DIGITS = 17
_LOW, _HIGH = 1.0, 1e15
# floor(k * log10(2)) for each binary exponent k of [1, 1e15).
_DECADE_OF_BINADE = np.array([len(str(2 ** k)) - 1 for k in range(50)], np.uint8)
_POWERS_OF_TEN = np.array([float(10 ** k) for k in range(16)])
_POWERS_OF_FIVE = np.array([5 ** (_DIGITS - 1 - k) for k in range(15)], dtype=np.uint64)
_ONE = np.uint64(1)
_LOW_WORD = np.uint64(2 ** 32 - 1)

# A value's text is laid out in byte slots, one row of slots per byte: the
# sign, then the digits, and the separator last.  Each digit up to the
# block's largest decade ``top`` is followed by the slot of a point (a value
# of decade E puts its point after digit E); the digits after it follow one
# another.  So a block is top + 20 slots wide.  Empty slots stay NUL and are
# dropped at the end.  "%.17g" % x is format_real(x), the same C call: a value
# outside [1, 1e15) gets its text from it, left-justified in the slots before
# the separator, where its padding spaces become NUL.  That text, such as
# "-4.9406564584124654e-324", can be _LONGEST bytes long, so a block that
# holds such a value is at least _LONGEST + 1 slots wide.
_LONGEST = 24
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
_POSITIONS = np.arange(_DIGITS, dtype=np.uint8)[:, None]


def _significand(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each value in [1, 1e15), as an integer
    in [10**16, 10**17), and its decade.  The steps work in place, and the
    digits are returned in ``magnitude``'s buffer."""
    bits = magnitude.view(np.uint64)
    binary = (bits >> 52).view(np.int64)
    binary -= 1023
    decade = _DECADE_OF_BINADE[binary]
    decade += magnitude >= _POWERS_OF_TEN[decade + 1]
    factor = _POWERS_OF_FIVE[decade]
    # mantissa * factor = high * 2**64 + low, from four 32-bit partial
    # products; the low halves, then low and middle, reuse the buffers of
    # the mantissa and the factor.
    bits &= np.uint64(2 ** 52 - 1)
    bits |= np.uint64(2 ** 52)
    high, f_high = bits >> 32, factor >> 32
    low = np.bitwise_and(bits, _LOW_WORD, out=bits)
    middle = np.bitwise_and(factor, _LOW_WORD, out=factor)
    partial = low * middle
    middle *= high
    middle += np.multiply(low, f_high, out=low)
    high *= f_high
    np.left_shift(middle, 32, out=low)
    low += partial
    high += low < partial
    high += np.right_shift(middle, 32, out=middle)
    # -(e + 16 - E), e = binary - 52: 1 to 36 bits of low are shifted out.
    shift = np.subtract(decade + 36, binary, out=binary).view(np.uint64)
    dropped = np.left_shift(_ONE, shift, out=f_high)
    dropped -= _ONE
    dropped &= low
    high <<= 64 - shift
    digits = np.right_shift(low, shift, out=low)
    digits |= high
    half = np.left_shift(_ONE, shift - _ONE, out=shift)
    # Round half to even: up when more than half is dropped, or half of an
    # odd value.
    up = np.bitwise_and(digits, _ONE, out=high)
    up *= dropped == half
    up += dropped > half
    digits += up
    # A rounding up to 10**17 moves the value up one decade.
    carry = digits == 10 ** _DIGITS
    digits[carry] = 10 ** (_DIGITS - 1)
    decade += carry
    return digits, decade


def rows_text(values: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV text: each value as
    ``format_real`` writes it, a comma between the values of a row and a
    newline after each row."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, columns = values.shape
    flat = values.ravel()
    magnitude = np.abs(flat)
    exact = (magnitude >= _LOW) & (magnitude < _HIGH)
    if not exact.any():
        # No value for the kernel: "%.17g" writes them all, as format_real does.
        row = ",".join(["%.17g"] * columns) + "\n"
        return (row * rows) % tuple(flat.tolist())
    # Other values get a placeholder here and their own text below.
    others = np.flatnonzero(~exact)
    magnitude[others] = _LOW
    significand, decade = _significand(magnitude)
    # Each array is dropped once used, so that the workspace is copied out
    # with no other array of the block held.
    del magnitude

    # The digits, last first, of the significand's leading 8 and trailing 9
    # digits, in one loop over both halves: each fits 32 bits, where numpy
    # divides fastest.  Row 0 takes the leading half's ninth digit, a 0, and
    # is dropped.
    leading = significand // 10 ** 9
    significand -= leading * 10 ** 9
    halves = np.array([leading, significand], np.uint32)
    del leading, significand
    digits = np.empty((2, 9, flat.size), np.uint8)
    for position in range(8, -1, -1):
        rest = halves // 10
        halves -= rest * 10
        digits[:, position] = halves
        halves = rest
    del halves, rest
    digits = digits.reshape(2 * 9, -1)[1:]
    last = ((digits != 0) * _POSITIONS).max(axis=0)
    # Zeros after the point and after the last other digit are not written.
    digits += ord("0")
    digits *= _POSITIONS <= np.maximum(decade, last)

    top = int(decade.max())
    width = top + 20
    if others.size:
        width = max(width, _LONGEST + 1)
    # One row of slots per byte of a value's text, one column per value.
    text = np.zeros((width, flat.size), np.uint8)
    np.multiply(flat < 0, np.uint8(ord("-")), out=text[0])
    text[1:2 * top + 2:2] = digits[:top + 1]
    text[2 * top + 3:top + 19] = digits[top + 1:]
    del digits
    # A value with a digit after its point marks the point slot of its decade.
    point = np.where(last > decade, decade, np.uint8(_DIGITS))
    np.multiply(point == _POSITIONS[:top + 1], np.uint8(ord(".")), out=text[2:2 * top + 3:2])
    text[-1] = ord(",")
    text[-1, columns - 1::columns] = ord("\n")

    if others.size:
        spelled = (f"%-{width - 1}.17g" * others.size) % tuple(flat[others].tolist())
        spelled = spelled.encode("ascii").translate(_SPACE_TO_NUL)
        text[:-1, others] = np.frombuffer(spelled, np.uint8).reshape(-1, width - 1).T
        del spelled
    text = text.T.tobytes()
    text = text.translate(None, b"\0")
    return text.decode("ascii")
