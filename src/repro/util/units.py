"""Time-unit helpers.

The whole simulation runs in **virtual microseconds** (float).  These
helpers keep unit conversions explicit at module boundaries — the paper
reports micro-benchmarks in µs and application times in seconds, and silent
unit slips are the classic way such reproductions go wrong.
"""

from __future__ import annotations

#: microseconds per millisecond
US_PER_MS: float = 1_000.0
#: microseconds per second
US_PER_S: float = 1_000_000.0


def us_to_ms(us: float) -> float:
    """Convert microseconds to milliseconds."""
    return us / US_PER_MS


def us_to_s(us: float) -> float:
    """Convert microseconds to seconds."""
    return us / US_PER_S


def fmt_time_us(us: float, *, precision: int = 1) -> str:
    """Render a µs quantity with an auto-selected unit, like ``88.0 us``,
    ``1.35 ms`` or ``2.91 s``.

    >>> fmt_time_us(88.0)
    '88.0 us'
    >>> fmt_time_us(1350.0)
    '1.4 ms'
    """
    if us != us:  # NaN
        return "nan"
    mag = abs(us)
    if mag >= US_PER_S:
        return f"{us / US_PER_S:.{precision + 1}f} s"
    if mag >= US_PER_MS:
        return f"{us / US_PER_MS:.{precision}f} ms"
    return f"{us:.{precision}f} us"


def fmt_bytes(n: int) -> str:
    """Render a byte count with an auto-selected binary unit.

    >>> fmt_bytes(160)
    '160 B'
    >>> fmt_bytes(4096)
    '4.0 KiB'
    """
    if n < 1024:
        return f"{n} B"
    if n < 1024**2:
        return f"{n / 1024:.1f} KiB"
    return f"{n / 1024**2:.1f} MiB"
