"""Duration distributions used by platform specs and function bodies.

All distributions are expressed in milliseconds in config files and sampled
to integer microseconds. Supported forms: ``constant(x)``, ``uniform(a,b)``,
``lognormal(median,sigma)``, ``exponential(mean)``. Parameters must be finite,
and no sample the generator can draw may reach ``MAX_SAMPLE_US``.

``read`` reads one field of a JSON input document (application, deployment
config, load profile) as exactly one JSON type, durations included;
``read_document`` parses the document itself.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy only annotates: the generator is the caller's
    import numpy as np

_DIST_RE = re.compile(r"^\s*(constant|uniform|lognormal|exponential)\s*\(([^)]*)\)\s*$")

MICROS_PER_MS = 1000
# 2**53 us (about 285 years): below it a float sample still rounds to the exact
# microsecond
MAX_SAMPLE_US = 2**53
# every profile time and keep-alive stays below it, where the seconds to_dict
# writes read back as the same microsecond
MAX_PROFILE_US = 2**51
PROFILE_LIMIT = "2**51 us (about 71 years)"
# numpy's ziggurat tails take the log of a 53-bit uniform, so a standard normal
# draw stays below 12.3 and a standard exponential one below 44.5; the reach
# check rounds both up
_NORMAL_REACH = 13.0
_EXPONENTIAL_REACH = 45.0


class DistributionError(ValueError):
    """Raised for unparseable or invalid distribution expressions."""


@dataclass(frozen=True)
class Duration:
    """A nonnegative duration distribution with microsecond resolution."""

    kind: str
    args: tuple[float, ...]
    # a constant's sample, converted once (None for the sampled kinds)
    constant_us: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(math.isfinite(a) for a in self.args):
            raise DistributionError(f"{self.spec()}: parameters must be finite")
        if self.kind == "constant":
            if len(self.args) != 1 or self.args[0] < 0:
                raise DistributionError(f"constant() takes one nonnegative value: {self.args}")
        elif self.kind == "uniform":
            if len(self.args) != 2 or not (0 <= self.args[0] <= self.args[1]):
                raise DistributionError(f"uniform(a,b) requires 0 <= a <= b: {self.args}")
        elif self.kind == "lognormal":
            if len(self.args) != 2 or self.args[0] <= 0 or self.args[1] < 0:
                raise DistributionError(f"lognormal(median,sigma) requires median > 0, sigma >= 0: {self.args}")
        elif self.kind == "exponential":
            if len(self.args) != 1 or self.args[0] < 0:
                raise DistributionError(f"exponential(mean) requires mean >= 0: {self.args}")
        else:
            raise DistributionError(f"unknown distribution kind: {self.kind}")
        if self._reach_ms() * MICROS_PER_MS >= MAX_SAMPLE_US:
            raise DistributionError(f"{self.spec()}: samples can reach 2**53 us (about 285 years), past microsecond precision")
        if self.kind == "constant":
            object.__setattr__(self, "constant_us", _to_micros(self.args[0]))

    def _reach_ms(self) -> float:
        """The largest sample the generator can draw, in ms (may be inf)."""
        if self.kind == "constant":
            return self.args[0]
        if self.kind == "uniform":
            return self.args[1]
        if self.kind == "lognormal":
            median, sigma = self.args
            # math.exp raises past 709.78; an exponent capped at 709 still
            # fails the check
            return math.exp(min(math.log(median) + _NORMAL_REACH * sigma, 709.0))
        return self.args[0] * _EXPONENTIAL_REACH

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one duration in integer microseconds.

        Constants consume no randomness so that configs which only differ in
        constant values replay the same sample stream.
        """
        if self.constant_us is not None:
            return self.constant_us
        if self.kind == "uniform":
            return _to_micros(rng.uniform(self.args[0], self.args[1]))
        if self.kind == "lognormal":
            median, sigma = self.args
            return _to_micros(math.exp(rng.normal(math.log(median), sigma)))
        # exponential
        return _to_micros(rng.exponential(self.args[0]))

    def spec(self) -> str:
        """Render back to the config syntax (``kind(a,b)``)."""
        rendered = ",".join(_fmt(a) for a in self.args)
        return f"{self.kind}({rendered})"


def _to_micros(millis: float) -> int:
    return max(0, int(round(millis * MICROS_PER_MS)))


def _fmt(x: float) -> str:
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)  # the short form only where it reads back as x


def constant(ms: float) -> Duration:
    return Duration("constant", (float(ms),))


def parse_duration(text: str) -> Duration:
    """Parse the config syntax, e.g. ``lognormal(15,0.25)`` (milliseconds)."""
    m = _DIST_RE.match(text) if isinstance(text, str) else None
    if not m:
        raise DistributionError(f"cannot parse distribution: {text!r}")
    kind, raw_args = m.group(1), m.group(2)
    try:
        args = tuple(float(a) for a in raw_args.split(",")) if raw_args.strip() else ()
    except ValueError as exc:
        raise DistributionError(f"bad distribution arguments in {text!r}") from exc
    return Duration(kind, args)


# read's default for a field the document must have
REQUIRED = object()
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false", dict: "an object",
               list: "an array"}


def read_document(text: str, error: type[Exception]):
    """The JSON value of ``text``. An object that holds a key twice (plain
    ``json.loads`` keeps the last) and a document nested too deeply for
    Python's JSON reader raise ``error``; text that is not JSON raises
    ValueError."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        d = dict(pairs)
        if len(d) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise error(f"key {key!r} appears twice in one object")
        return d

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError as exc:
        raise error(f"JSON nested too deeply: {exc}") from None


def read(d: dict, key: str, kind, error: type[Exception], default=REQUIRED, where: str = ""):
    """Field ``key`` of the JSON object ``d`` as exactly one JSON type, or
    ``default`` when the field is absent.

    ``kind`` is ``str``, ``int`` (not ``true``, not ``5.0``), ``float`` (any
    finite number, returned as a float), ``bool``, ``dict``, ``list``,
    ``[k]`` (an array whose items are each read as ``k``) or ``Duration``
    (parsed from its string). Any other value raises ``error`` with a message
    that starts with ``where`` and names the field.
    """
    if type(d) is not dict:  # only a document's top level is not checked by its parent's read
        raise error(f"{where}expected an object, got {json.dumps(d)}")
    if key not in d:
        if default is REQUIRED:
            raise error(f"{where}missing required field {key!r}")
        return default
    value, name = d[key], f"{where}{key}"
    if kind is Duration:
        try:
            return parse_duration(value)
        except DistributionError as exc:
            raise error(f"{name}: {exc}") from None
    if type(kind) is list:
        items = read(d, key, list, error, where=where)
        # each item is read as the one field of an object keyed by its path, so a message names it as a[0]
        return [read({f"{name}[{i}]": item}, f"{name}[{i}]", kind[0], error) for i, item in enumerate(items)]
    if kind is float and type(value) in (int, float):
        # written so that a nan fails too, and an integer too large for a float
        if not abs(value) <= sys.float_info.max:
            raise error(f"{name} must be finite, got {value}")
        return float(value)
    if type(value) is not kind:
        raise error(f"{name} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value
