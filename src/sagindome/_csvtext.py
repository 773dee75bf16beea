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
"""

import numpy as np

_DIGITS = 17
_LOW, _HIGH = 1.0, 1e15
# floor(k * log10(2)) for each binary exponent k of [1, 1e15).
_DECADE_OF_BINADE = np.array([len(str(2 ** k)) - 1 for k in range(50)])
_POWERS_OF_TEN = np.array([float(10 ** k) for k in range(16)])
_POWERS_OF_FIVE = np.array([5 ** (_DIGITS - 1 - k) for k in range(15)], dtype=np.uint64)
_ONE = np.uint64(1)
_LOW_WORD = np.uint64(2 ** 32 - 1)

# A value's text is laid out in _WIDTH byte slots: the sign, then each digit
# followed by the slot of a point, and the separator last.  Empty slots stay
# NUL and are dropped at the end.  The longest ``format_real`` text, such as
# "-4.9406564584124654e-324", fills 24 of the first _WIDTH - 1 slots.
_WIDTH = 2 * _DIGITS + 1
_DIGIT_SLOTS = slice(1, 2 * _DIGITS, 2)
# "%.17g" % x is format_real(x), the same C call; the width left-justifies
# it in the slots, and its padding spaces become NUL.
_PADDED = f"%-{_WIDTH - 1}.17g"
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
_POSITIONS = np.arange(_DIGITS, dtype=np.uint8)[:, None]


# glibc's malloc maps a request of at least its mmap threshold (128 KiB at
# start) on its own, and gives the free top of its heap back to the system
# once it passes the trim threshold (256 KiB at start).  Freeing a mapped
# chunk lifts the two thresholds to its size and twice that.  Without a lift
# each block of a stream maps its largest arrays, then grows and trims the
# heap for the rest, so the pages of every block are faulted in anew: a
# 2e5-point sample took ~23k minor faults, against ~300 after a lift.  A
# chunk is one block of 2 048 points (``pointprocess._BLOCK_ROWS``, 2 049 in
# some last blocks) and takes about 1.2 MB in ``rows_text``, none of its
# arrays above 0.25 MB, so a lift to 2 MiB (trim at 4 MiB) keeps every chunk
# in the heap.
_HEAP_LIFT_BYTES = 2 ** 21


def lift_heap_thresholds() -> None:
    """Lift the C allocator's thresholds above a block's arrays, so a stream
    of blocks reuses its heap instead of mapping and faulting it anew.  The
    buffer is freed untouched, so it costs no resident memory; an allocator
    without glibc's dynamic thresholds ignores it."""
    np.empty(_HEAP_LIFT_BYTES, np.uint8)


def _significand(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each value in [1, 1e15), as an integer
    in [10**16, 10**17), and its decade."""
    bits = magnitude.view(np.uint64)
    binary = (bits >> 52).astype(np.intp) - 1023
    mantissa = (bits & np.uint64(2 ** 52 - 1)) | np.uint64(2 ** 52)
    decade = _DECADE_OF_BINADE[binary]
    decade += magnitude >= _POWERS_OF_TEN[decade + 1]
    factor = _POWERS_OF_FIVE[decade]
    # mantissa * factor = high * 2**64 + low, from four 32-bit partial products.
    m_high, m_low = mantissa >> 32, mantissa & _LOW_WORD
    f_high, f_low = factor >> 32, factor & _LOW_WORD
    partial = m_low * f_low
    middle = m_high * f_low + m_low * f_high
    low = partial + (middle << 32)
    high = m_high * f_high + (middle >> 32) + (low < partial)
    shift = (36 + decade - binary).astype(np.uint64)     # -(e + 16 - E), e = binary - 52
    digits = (high << (64 - shift)) | (low >> shift)
    dropped = low & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    digits += (dropped > half) | ((dropped == half) & (digits & _ONE).astype(bool))
    # A rounding up to 10**17 moves the value up one decade.
    carry = digits == 10 ** _DIGITS
    digits[carry] = 10 ** (_DIGITS - 1)
    decade += carry
    return digits, decade.astype(np.uint8)


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
    significand, decade = _significand(np.where(exact, magnitude, _LOW))

    # The digits, last first, of the significand's leading 9 and trailing 8
    # digits: each half fits 32 bits, where numpy divides fastest.
    digits = np.empty((_DIGITS, flat.size), np.uint8)
    halves = np.divmod(significand, 10 ** 8)
    for half, positions in zip(halves, (range(8, -1, -1), range(16, 8, -1))):
        half = half.astype(np.uint32)
        for position in positions:
            rest = half // 10
            digits[position] = half - rest * 10
            half = rest
    last = ((digits != 0) * _POSITIONS).max(axis=0)

    # One row of slots per byte of a value's text, one column per value.
    text = np.zeros((_WIDTH, flat.size), np.uint8)
    text[0] = (flat < 0) * ord("-")
    digit_slots = text[_DIGIT_SLOTS]
    np.add(digits, ord("0"), out=digit_slots)
    # Zeros after the point and after the last other digit are not written.
    digit_slots *= _POSITIONS <= np.maximum(decade, last)
    pointed = np.flatnonzero(last > decade)
    text[2 + 2 * decade[pointed], pointed] = ord(".")
    separators = text[-1].reshape(rows, columns)
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")

    others = np.flatnonzero(~exact)
    if others.size:
        spelled = (_PADDED * others.size) % tuple(flat[others].tolist())
        spelled = spelled.encode("ascii").translate(_SPACE_TO_NUL)
        text[:-1, others] = np.frombuffer(spelled, np.uint8).reshape(-1, _WIDTH - 1).T
    return text.T.tobytes().translate(None, b"\0").decode("ascii")
