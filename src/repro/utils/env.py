"""The one reader of the ``REPRO_*`` environment knobs.

Every knob is read through one of three functions, so one rule holds
for all of them (README's knob block lists every knob):

* unset means the knob's default;
* :func:`env_text` -- a blank value reads as unset;
* :func:`env_flag` -- blank, ``0``, ``false``, ``no`` and ``off`` read
  as False, ``1``, ``true``, ``yes`` and ``on`` as True, in any case;
  anything else raises ValueError naming the variable;
* :func:`env_number` -- a blank or unparsable value raises ValueError
  naming the variable and the raw value, and so does one out of range
  (not positive, or negative where zero is allowed).
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar, Union

__all__ = ["env_flag", "env_number", "env_text"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")

_T = TypeVar("_T")


def env_text(name: str) -> Optional[str]:
    """The stripped value of ``name``, or None when unset or blank."""
    return os.environ.get(name, "").strip() or None


def env_flag(name: str) -> bool:
    """The boolean value of ``name``; False when unset or blank."""
    raw = os.environ.get(name, "")
    word = raw.strip().lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError(
        f"{name} must be a flag (1/true/yes/on or 0/false/no/off), got {raw!r}"
    )


def env_number(
    name: str,
    default: _T,
    parse: Callable[[str], Union[int, float]] = int,
    allow_zero: bool = False,
) -> Union[_T, int, float]:
    """``parse`` of the value of ``name``, or ``default`` when unset.

    The value must be positive, or non-negative with ``allow_zero``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = parse(raw)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {raw!r}") from None
    if not (value > 0 or (allow_zero and value == 0)):
        kind = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {kind}, got {raw!r}")
    return value
