"""The ExaMon payload format: ``<value>;<timestamp>`` (Table II).

Values are numeric; timestamps are seconds (the simulated clock plays the
role of Unix time).  The codec is strict — a malformed payload raises
rather than silently producing NaNs in the database, because storage-side
validation is what keeps an ODA pipeline debuggable.  In-process samples
skip the text (``MQTTBroker.publish_samples``) but pass :func:`check_value`.
"""

from __future__ import annotations

import re

__all__ = ["check_value", "encode_payload", "decode_payload"]

#: One field: ``float()`` syntax without padding, ``_`` or non-ASCII digits.
_FIELD = re.compile(r"[0-9A-Za-z.+-]+")


def check_value(value: object) -> None:
    """Raise unless ``value`` is a number (not a bool) a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"value must be numeric, got {type(value).__name__}")
    float(value)


def encode_payload(value: float, timestamp_s: float) -> str:
    """Render one measurement in the Table II wire format."""
    check_value(value)
    return f"{value};{timestamp_s}"


def decode_payload(payload: str) -> tuple[float, float]:
    """Parse ``<value>;<timestamp>`` back into floats.

    Raises
    ------
    ValueError
        On a non-``str`` payload, a missing separator or a malformed field.
    """
    if not isinstance(payload, str):
        raise ValueError(f"payload must be str, got {type(payload).__name__}")
    value_text, sep, ts_text = payload.partition(";")
    if not sep:
        raise ValueError(f"payload missing ';' separator: {payload!r}")
    if not (_FIELD.fullmatch(value_text) and _FIELD.fullmatch(ts_text)):
        raise ValueError(f"non-numeric payload: {payload!r}")
    try:
        return float(value_text), float(ts_text)
    except ValueError as exc:
        raise ValueError(f"non-numeric payload: {payload!r}") from exc
