"""Column data types, value coercion, and type inference.

Life-science flat files carry everything as text; parsers that shred them
into relations must guess column types from the data. ``infer_type`` mirrors
what a generic import tool does: a column is INTEGER if every non-null value
parses as an integer, FLOAT if every value parses as a number, TEXT
otherwise. The discovery heuristics in :mod:`repro.discovery` later rely on
the distinction between digit-only surrogate keys and alphanumeric accession
numbers, so faithful type handling matters.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, Optional


class DataType(enum.Enum):
    """The three storage types of the substrate."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)


def is_null(value: Any) -> bool:
    """Return True for the substrate's notion of SQL NULL.

    ``None`` is NULL; NaN floats are treated as NULL as well because they
    poison comparisons and commonly appear when numeric columns are parsed
    from incomplete flat files.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def _parse_int(text: str) -> Optional[int]:
    text = text.strip()
    if not text:
        return None
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    # ASCII digits only: str.isdigit() accepts superscripts ('²') and
    # other Unicode digit-like characters that int() rejects.
    if not text or not all("0" <= ch <= "9" for ch in text):
        return None
    return sign * int(text)


def _parse_float(text: str) -> Optional[float]:
    try:
        value = float(text.strip())
    except (ValueError, OverflowError):
        return None
    if math.isnan(value) or math.isinf(value):
        return None
    return value


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Coerce ``value`` to ``data_type``; NULL passes through.

    Raises:
        TypeError: if the value cannot represent the target type.
    """
    if is_null(value):
        return None
    if data_type is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise TypeError(f"cannot store non-integral float {value!r} in INTEGER column")
        if isinstance(value, str):
            parsed = _parse_int(value)
            if parsed is None:
                raise TypeError(f"cannot parse {value!r} as INTEGER")
            return parsed
        raise TypeError(f"cannot store {type(value).__name__} in INTEGER column")
    if data_type is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            parsed = _parse_float(value)
            if parsed is None:
                raise TypeError(f"cannot parse {value!r} as FLOAT")
            return parsed
        raise TypeError(f"cannot store {type(value).__name__} in FLOAT column")
    # TEXT accepts anything representable as a string.
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return str(value)
    raise TypeError(f"cannot store {type(value).__name__} in TEXT column")


def infer_type(values: Iterable[Any]) -> DataType:
    """Infer the narrowest DataType that fits every non-null value.

    An all-null (or empty) column defaults to TEXT, the safest choice for
    flat-file data.
    """
    saw_value = False
    could_be_int = True
    could_be_float = True
    for value in values:
        if is_null(value):
            continue
        saw_value = True
        if isinstance(value, bool):
            could_be_float = False
            could_be_int = False
            break
        if isinstance(value, int):
            continue
        if isinstance(value, float):
            could_be_int = could_be_int and value.is_integer()
            continue
        if isinstance(value, str):
            if could_be_int and _parse_int(value) is None:
                could_be_int = False
            if could_be_float and _parse_float(value) is None:
                could_be_float = False
            if not could_be_float:
                break
            continue
        could_be_int = False
        could_be_float = False
        break
    if not saw_value:
        return DataType.TEXT
    if could_be_int:
        return DataType.INTEGER
    if could_be_float:
        return DataType.FLOAT
    return DataType.TEXT
