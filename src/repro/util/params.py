"""CLI parameter coercion, shared by every ``key=value`` surface.

One grammar serves the campaign axis values (``campaign init n=2..4``),
the experiment runner overrides (``run fig1a --param n=2``), and the
scenario verify overrides (``verify agp-opacity --set seed=7``):
ints, floats, ``true``/``false``, JSON values (arrays, objects, quoted
strings), bare strings as the fallback.  Centralising it here keeps the
three surfaces from drifting apart — a value that means ``[0, 1]`` on a
campaign axis means ``[0, 1]`` on a verify override too.
"""

from __future__ import annotations

import json
import os

from typing import Any, Dict, List

from repro.util.errors import UsageError


def env_int(name: str, default: int, minimum: int = 0) -> int:
    """Read an integer knob from the environment, validated.

    One grammar for every ``REPRO_*`` integer variable (such as
    ``REPRO_FAMILY_BUDGET``): unset or empty
    means ``default``, values below ``minimum`` clamp to ``minimum``,
    and a non-integer raises :class:`~repro.util.errors.UsageError`
    naming the variable — never a silent fallback.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return max(minimum, value)


def coerce_scalar(raw: str) -> Any:
    """Coerce one textual value: int, float, ``true``/``false``, JSON
    (``[...]``/``{...}``/quoted strings), bare string as fallback."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for parser in (int, float):
        try:
            return parser(raw)
        except ValueError:
            pass
    if raw[:1] in ("[", "{", '"'):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            pass
    return raw


def parse_params(pairs: List[str], option: str = "--param") -> Dict[str, Any]:
    """Parse repeated ``key=value`` pairs into a parameter mapping.

    Malformed pairs (no ``=``, empty key) and duplicate keys raise
    :class:`~repro.util.errors.UsageError` naming the offending pair and
    the CLI option it came from (the CLI maps that to exit code 2).
    """
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"{option} expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"{option} pair {pair!r} has an empty key")
        if key in params:
            raise UsageError(f"{option} key {key!r} given twice")
        params[key] = coerce_scalar(raw)
    return params
