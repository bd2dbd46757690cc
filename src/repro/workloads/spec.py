"""Declarative workload specifications: load, validate, compile.

A workload spec is a data file (YAML subset or JSON) that declares
everything the generator layer previously hard-coded in Python:

* a **catalog recipe** — which database to build and at what size;
* a **table vocabulary** — tables and their columns, used to validate
  that every template only touches declared schema;
* **value pools** — named lists of constants templates can draw from;
* **families** with mix weights — how probability mass is split across
  template groups when sampling a pool;
* **templates** — ``str.format`` SQL texts plus an explicit, ordered
  list of per-placeholder *value strategies* (uniform / zipf /
  date-window / choice / value-pool and offset variants).

The compiler turns each template into a :class:`QueryTemplate` whose
sampler replays the strategies in declared order against a
``numpy.random.Generator`` — the parameter entries are listed in *RNG
draw order*, which is what makes ``specs/tpcds.yaml`` bitwise-identical
to the legacy hand-written samplers at the same seed (see
``tests/test_workload_spec.py``).

The loader is stdlib-only: CI environments do not install PyYAML, so a
small indentation-based parser covers the YAML subset the spec format
uses (block mappings/sequences, inline flow lists, quoted scalars and
``>``-folded strings).  JSON files are accepted as-is.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from string import Formatter
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import ParseError, WorkloadSpecError
from repro.rng import child_generator

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "QueryTemplate",
    "ParamSpec",
    "TemplateSpec",
    "FamilySpec",
    "WorkloadSpec",
    "CompiledWorkload",
    "STRATEGY_NAMES",
    "parse_simple_yaml",
    "load_workload_spec",
    "validate_spec_data",
    "compile_workload",
    "builtin_spec_dir",
    "builtin_workload_names",
    "resolve_workload",
    "describe_workload",
]

#: Bump when the spec layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1

WorkloadRef = Union[str, Path, "WorkloadSpec", "CompiledWorkload"]


@dataclass(frozen=True)
class QueryTemplate:
    """A SQL text template plus a joint parameter sampler.

    Attributes:
        name: unique template identifier.
        sql: ``str.format`` template of the query text.
        sampler: draws a dict of parameter values from an rng.
        family: the template's family tag (e.g. ``standard`` /
            ``problem``).
    """

    name: str
    sql: str
    sampler: Callable[[np.random.Generator], dict]
    family: str = "standard"

    def render(self, rng: np.random.Generator) -> tuple[str, dict]:
        """Instantiate the template; returns (sql_text, parameter_values)."""
        params = self.sampler(rng)
        return self.sql.format(**params), params


# ----------------------------------------------------------------------
# Minimal YAML-subset parser (stdlib only; CI has no PyYAML)
# ----------------------------------------------------------------------


@dataclass
class _Line:
    number: int
    indent: int
    text: str


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# ...`` comment, respecting quoted strings."""
    quote: Optional[str] = None
    for index, char in enumerate(line):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "#" and (index == 0 or line[index - 1] in " \t"):
            return line[:index]
    return line


def _significant_lines(text: str) -> list[_Line]:
    lines = []
    for number, rawline in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(rawline).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" \t"))
        if "\t" in stripped[:indent]:
            raise WorkloadSpecError(
                f"line {number}: tabs are not allowed in indentation"
            )
        lines.append(_Line(number, indent, stripped.strip()))
    return lines


def _parse_flow_list(text: str, number: int) -> list:
    body = text.strip()[1:-1].strip()
    if not body:
        return []
    items: list = []
    current = ""
    quote: Optional[str] = None
    for char in body:
        if quote is not None:
            current += char
            if char == quote:
                quote = None
        elif char in "'\"":
            current += char
            quote = char
        elif char == "[":
            raise WorkloadSpecError(
                f"line {number}: nested flow lists are not supported"
            )
        elif char == ",":
            items.append(_parse_scalar(current.strip(), number))
            current = ""
        else:
            current += char
    if quote is not None:
        raise WorkloadSpecError(f"line {number}: unterminated quote")
    items.append(_parse_scalar(current.strip(), number))
    return items


def _parse_scalar(text: str, number: int):
    text = text.strip()
    if text[:1] == "[":
        if not text.endswith("]"):
            raise WorkloadSpecError(f"line {number}: unterminated flow list")
        return _parse_flow_list(text, number)
    if text[:1] in ("'", '"'):
        if len(text) < 2 or text[-1] != text[0]:
            raise WorkloadSpecError(f"line {number}: unterminated quote")
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    if lowered in ("null", "~", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*):(?:\s+(.*))?$")


def _parse_folded(lines: list[_Line], pos: int, indent: int) -> tuple[str, int]:
    """A ``>`` folded scalar: deeper lines joined with single spaces."""
    parts = []
    while pos < len(lines) and lines[pos].indent > indent:
        parts.append(lines[pos].text)
        pos += 1
    return " ".join(parts), pos


def _parse_block(lines: list[_Line], pos: int, indent: int):
    if lines[pos].text.startswith("- ") or lines[pos].text == "-":
        return _parse_sequence(lines, pos, indent)
    return _parse_mapping(lines, pos, indent)


def _parse_sequence(lines: list[_Line], pos: int, indent: int) -> tuple[list, int]:
    items: list = []
    while pos < len(lines) and lines[pos].indent == indent:
        line = lines[pos]
        if not (line.text.startswith("- ") or line.text == "-"):
            break
        rest = line.text[2:].strip() if line.text != "-" else ""
        if not rest:
            pos += 1
            if pos < len(lines) and lines[pos].indent > indent:
                value, pos = _parse_block(lines, pos, lines[pos].indent)
            else:
                value = None
            items.append(value)
        elif _KEY_RE.match(rest):
            # `- key: value` — the item is a mapping whose first entry
            # shares the dash's line; re-parse it at the virtual indent
            # just past the dash marker.
            lines[pos] = _Line(line.number, indent + 2, rest)
            value, pos = _parse_mapping(lines, pos, indent + 2)
            items.append(value)
        else:
            items.append(_parse_scalar(rest, line.number))
            pos += 1
    return items, pos


def _parse_mapping(lines: list[_Line], pos: int, indent: int) -> tuple[dict, int]:
    mapping: dict = {}
    while pos < len(lines) and lines[pos].indent == indent:
        line = lines[pos]
        match = _KEY_RE.match(line.text)
        if match is None:
            raise WorkloadSpecError(
                f"line {line.number}: expected 'key: value', got {line.text!r}"
            )
        key, value_text = match.group(1), match.group(2)
        if key in mapping:
            raise WorkloadSpecError(f"line {line.number}: duplicate key {key!r}")
        pos += 1
        if value_text is None or not value_text.strip():
            if pos < len(lines) and lines[pos].indent > indent:
                value, pos = _parse_block(lines, pos, lines[pos].indent)
            else:
                value = None
        elif value_text.strip() in (">", ">-"):
            value, pos = _parse_folded(lines, pos, indent)
        else:
            value = _parse_scalar(value_text, line.number)
        mapping[key] = value
    if pos < len(lines) and lines[pos].indent > indent:
        bad = lines[pos]
        raise WorkloadSpecError(
            f"line {bad.number}: unexpected indentation for {bad.text!r}"
        )
    return mapping, pos


def parse_simple_yaml(text: str) -> dict:
    """Parse the YAML subset workload specs use into plain Python data.

    Supported: nested block mappings and sequences, ``- key: value``
    sequence items, inline flow lists of scalars, single/double-quoted
    strings, ints/floats/bools/null, comments, and ``>``-folded strings
    (joined with single spaces).  This is deliberately *not* a general
    YAML parser — it covers exactly the constructs in ``specs/``.
    """
    lines = _significant_lines(text)
    if not lines:
        raise WorkloadSpecError("empty workload spec")
    try:
        value, pos = _parse_block(lines, 0, lines[0].indent)
    except RecursionError:
        raise WorkloadSpecError("workload spec nests too deeply") from None
    if pos != len(lines):
        bad = lines[pos]
        raise WorkloadSpecError(
            f"line {bad.number}: trailing content {bad.text!r}"
        )
    if not isinstance(value, dict):
        raise WorkloadSpecError("workload spec root must be a mapping")
    return value


# ----------------------------------------------------------------------
# Spec data model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One placeholder-value strategy of a template, in RNG draw order."""

    strategy: str
    names: tuple[str, ...]
    options: dict = field(hash=False, compare=False, default_factory=dict)


@dataclass(frozen=True)
class TemplateSpec:
    """A declared query template: SQL text plus ordered param strategies."""

    name: str
    family: str
    sql: str
    params: tuple[ParamSpec, ...]


@dataclass(frozen=True)
class FamilySpec:
    """A template family and its share of the generation mix."""

    name: str
    weight: float
    description: str = ""


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully validated workload specification."""

    name: str
    description: str
    catalog: dict
    tables: dict
    pools: dict
    families: tuple[FamilySpec, ...]
    templates: tuple[TemplateSpec, ...]
    date_span_days: int
    source: Optional[str] = None

    def family_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.families)


@dataclass(frozen=True)
class CompiledWorkload:
    """A spec compiled into executable templates plus the sampling mix."""

    spec: WorkloadSpec
    templates: tuple[QueryTemplate, ...]
    family_order: tuple[str, ...]
    weights: dict

    @property
    def name(self) -> str:
        return self.spec.name


# ----------------------------------------------------------------------
# Value types
# ----------------------------------------------------------------------


def _finite(value) -> bool:
    """An int or float that converts to a finite float (bools count)."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_int(value) -> bool:
    return isinstance(value, int)


def _is_text(value) -> bool:
    return isinstance(value, str)


def _is_value_list(value) -> bool:
    """A non-empty list of strings and finite numbers: what a pool holds."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(_is_text(v) or _finite(v) for v in value)
    )


#: Value types: a check, and what a value failing it "must be".
_NUMBER = (_finite, "a finite number")
_INT = (_is_int, "an integer")
_NAME = (_is_text, "a string")
_VALUES = (_is_value_list, "a non-empty list of strings or finite numbers")


# ----------------------------------------------------------------------
# Strategy table
# ----------------------------------------------------------------------


def _typed_pick(values: Sequence, picked) -> Union[int, float, str]:
    """Coerce an rng.choice result to the pool's natural Python type."""
    if all(isinstance(v, int) for v in values):
        return int(picked)
    if any(isinstance(v, float) for v in values):
        return float(picked)
    return str(picked)


def _zipf_probabilities(n: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


# Draw builders: ``(options, values, date span) -> draw(rng, raw)``.  Each
# draw consumes exactly the rng calls, in the same order and with the
# same arguments, as the legacy hand-written samplers — the
# bitwise-identity contract of the spec refactor.


def _draw_int_uniform(options: dict, values: tuple, span: int):
    low, high = int(options["low"]), int(options["high"])
    return lambda rng, raw: int(rng.integers(low, high + 1))


def _draw_uniform(options: dict, values: tuple, span: int):
    low, high = float(options["low"]), float(options["high"])
    return lambda rng, raw: float(rng.uniform(low, high))


def _draw_choice(options: dict, values: tuple, span: int):
    return lambda rng, raw: _typed_pick(values, rng.choice(values))


def _draw_choice_list(options: dict, values: tuple, span: int):
    min_n, max_n = int(options["min_n"]), int(options["max_n"])

    def draw(rng: np.random.Generator, raw: dict) -> str:
        count = int(rng.integers(min_n, max_n + 1))
        chosen = rng.choice(values, size=count, replace=False)
        return ", ".join(f"'{c}'" for c in chosen)

    return draw


def _draw_date_window(options: dict, values: tuple, span: int):
    min_days, max_days = int(options["min_days"]), int(options["max_days"])

    def draw(rng: np.random.Generator, raw: dict) -> tuple[int, int]:
        width = min(int(rng.integers(min_days, max_days + 1)), span)
        lo = int(rng.integers(1, span - width + 2))
        return lo, lo + width - 1

    return draw


def _draw_int_offset(options: dict, values: tuple, span: int):
    base = options["base"]
    low, high = int(options["low"]), int(options["high"])
    clamp = options.get("clamp")

    def draw(rng: np.random.Generator, raw: dict) -> int:
        value = int(raw[base]) + int(rng.integers(low, high + 1))
        return value if clamp is None else min(value, int(clamp))

    return draw


def _draw_uniform_offset(options: dict, values: tuple, span: int):
    base = options["base"]
    low, high = float(options["low"]), float(options["high"])
    # Offsets apply to the *raw* (unrounded) base draw, matching the
    # legacy nested-lambda samplers.
    return lambda rng, raw: float(raw[base]) + float(rng.uniform(low, high))


def _draw_zipf_int(options: dict, values: tuple, span: int):
    low, high = int(options["low"]), int(options["high"])
    probs = _zipf_probabilities(high - low + 1, float(options.get("alpha", 1.2)))
    return lambda rng, raw: low + int(rng.choice(len(probs), p=probs))


def _draw_zipf_choice(options: dict, values: tuple, span: int):
    probs = _zipf_probabilities(len(values), float(options.get("alpha", 1.2)))
    return lambda rng, raw: _typed_pick(
        values, values[int(rng.choice(len(probs), p=probs))]
    )


@dataclass(frozen=True)
class _Strategy:
    """Everything the loader knows about one value strategy.

    ``required`` / ``optional`` map each option to its value type.  With a
    ``pool`` option the strategy draws from ``values`` or a declared pool;
    with ``base`` it offsets an earlier param's raw draw; with ``round`` it
    rounds the SQL text's value.  ``ordered`` is the option pair that must
    hold ``low <= high``; ``max_values`` caps how many integers that pair
    may span; a ``window`` fills ``names: [lo, hi]``.
    """

    draw: Callable[[dict, tuple, int], Callable]
    required: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    ordered: Optional[tuple[str, str]] = None
    max_values: Optional[int] = None
    window: bool = False


_RANGE = {"low": _NUMBER, "high": _NUMBER}
_OFFSET = {"base": _NAME, **_RANGE}
_SOURCE = {"values": _VALUES, "pool": _NAME}

#: ``zipf_int`` builds one float64 probability per value in its range
#: when the spec is compiled, so the range is bounded (8 MB at the cap;
#: the widest shipped range holds 801 values).
_ZIPF_MAX_VALUES = 10**6

#: One row per value strategy; docs/WORKLOADS.md's table lists the same.
_STRATEGIES = {
    "int_uniform": _Strategy(_draw_int_uniform, _RANGE, ordered=("low", "high")),
    "uniform": _Strategy(_draw_uniform, _RANGE, {"round": _INT}, ("low", "high")),
    "choice": _Strategy(_draw_choice, optional=_SOURCE),
    "choice_list": _Strategy(
        _draw_choice_list, {"min_n": _INT, "max_n": _INT}, _SOURCE
    ),
    "date_window": _Strategy(
        _draw_date_window,
        {"min_days": _NUMBER, "max_days": _NUMBER},
        ordered=("min_days", "max_days"),
        window=True,
    ),
    "int_offset": _Strategy(_draw_int_offset, _OFFSET, {"clamp": _NUMBER}),
    "uniform_offset": _Strategy(_draw_uniform_offset, _OFFSET, {"round": _INT}),
    "zipf_int": _Strategy(
        _draw_zipf_int, _RANGE, {"alpha": _NUMBER}, ("low", "high"),
        max_values=_ZIPF_MAX_VALUES,
    ),
    "zipf_choice": _Strategy(_draw_zipf_choice, optional={**_SOURCE, "alpha": _NUMBER}),
}

STRATEGY_NAMES = tuple(sorted(_STRATEGIES))


_Step = Callable[[np.random.Generator, dict, dict], None]


def _compile_param(param: ParamSpec, spec: WorkloadSpec) -> _Step:
    """Build the draw step for one param; closures capture plain data."""
    row, options = _STRATEGIES[param.strategy], param.options
    # inline values, a declared pool, or none for a strategy without either
    values = tuple(options.get("values") or spec.pools.get(options.get("pool"), ()))
    draw = row.draw(options, values, spec.date_span_days)
    digits = options.get("round", 2) if "round" in row.optional else None
    names, window = param.names, row.window

    def step(rng: np.random.Generator, raw: dict, out: dict) -> None:
        drawn = draw(rng, raw)
        for name, value in zip(names, drawn if window else (drawn,)):
            raw[name] = value
            out[name] = value if digits is None else round(value, digits)

    return step


def _template_sampler(tspec: TemplateSpec, spec: WorkloadSpec) -> Callable:
    steps = [_compile_param(p, spec) for p in tspec.params]

    def sampler(rng: np.random.Generator) -> dict:
        raw: dict = {}
        out: dict = {}
        for step in steps:
            step(rng, raw, out)
        return out

    return sampler


def compile_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """Compile a validated spec into executable query templates."""
    templates = tuple(
        QueryTemplate(
            name=tspec.name,
            sql=tspec.sql,
            sampler=_template_sampler(tspec, spec),
            family=tspec.family,
        )
        for tspec in spec.templates
    )
    return CompiledWorkload(
        spec=spec,
        templates=templates,
        family_order=spec.family_names(),
        weights={f.name: f.weight for f in spec.families},
    )


# ----------------------------------------------------------------------
# Validation: schema tables, one typed walk, then the cross-field rules
# ----------------------------------------------------------------------


def _expect(predicate: Callable[[object], bool], message: str):
    """A field check refusing what ``predicate`` rejects with ``message``,
    formatted with the field's ``where`` and ``value``."""
    return lambda value, where: (
        [] if predicate(value) else [message.format(where=where, value=value)]
    )


def _check_tables(tables, where: str) -> list[str]:
    if not isinstance(tables, dict) or not tables:
        return ["tables must be a non-empty mapping of table -> columns"]
    return [
        f"tables.{name} must be a list of column names"
        for name, columns in tables.items()
        if not (isinstance(columns, list) and all(map(_is_text, columns)))
    ]


def _check_pools(pools, where: str) -> list[str]:
    if not pools:
        return []
    if not isinstance(pools, dict):
        return ["pools must be a mapping of name -> value list"]
    return [
        f"pools.{name} must be a non-empty list"
        if not isinstance(values, list) or not values
        else f"pools.{name} must hold only strings and finite numbers"
        for name, values in pools.items()
        if not _is_value_list(values)
    ]


def _is_slug(value) -> bool:
    return _is_text(value) and re.fullmatch(r"[a-z0-9_-]+", value) is not None


#: Schema tables, walked by :func:`_walk`: (field, default when absent,
#: check).  ``a.b`` is field ``b`` of mapping ``a``, absent when ``a`` is
#: not a mapping.  A check returns the messages refusing the value.
_SPEC_FIELDS = (
    ("spec_version", None, _expect(
        lambda v: v == SPEC_SCHEMA_VERSION,
        f"spec_version must be {SPEC_SCHEMA_VERSION}, got {{value!r}}")),
    ("name", None, _expect(_is_slug, "name must be a lowercase slug, got {value!r}")),
    ("description", "", _expect(_is_text, "description must be a string")),
    ("catalog.kind", None, _expect(
        lambda v: v in ("tpcds", "customer"),
        "catalog.kind must be 'tpcds' or 'customer'")),
    ("catalog.scale_factor", 1.0, _expect(
        _finite, "catalog.scale_factor must be a finite number")),
    ("catalog.scale", 1.0, _expect(_finite, "catalog.scale must be a finite number")),
    ("catalog.seed", 0, _expect(_is_int, "catalog.seed must be an integer")),
    ("tables", None, _check_tables),
    ("pools", None, _check_pools),
    ("defaults", None, _expect(
        lambda v: not v or isinstance(v, dict), "defaults must be a mapping")),
    ("defaults.date_span_days", 365, _expect(
        lambda v: _is_int(v) and v >= 1,
        "defaults.date_span_days must be a positive integer")),
)

_FAMILY_FIELDS = (
    ("weight", 1.0, _expect(lambda v: _finite(v) and v >= 0,
                            "{where}: weight must be >= 0")),
    ("description", "", _expect(_is_text, "{where}: description must be a string")),
)

_TEMPLATE_FIELDS = (
    ("sql", None, _expect(lambda v: _is_text(v) and bool(v.strip()),
                          "{where}: missing sql")),
    ("params", [], _expect(lambda v: v is None or isinstance(v, list),
                           "{where}: params must be a list")),
)


def _walk(mapping: dict, fields: tuple, where: str = "") -> tuple[dict, list[str]]:
    """Check every field of a schema table on its raw value, before anything
    hashes, formats or converts it; returns (fields that passed, messages)."""
    values: dict = {}
    messages: list[str] = []
    for key, default, check in fields:
        parent, _, leaf = key.rpartition(".")
        holder = mapping.get(parent) if parent else mapping
        value = holder.get(leaf, default) if isinstance(holder, dict) else default
        failed = check(value, where)
        messages.extend(failed)
        if not failed:
            values[key] = value
    return values, messages


def _check_param(entry, where: str, pools: dict, seen: set) -> Union[ParamSpec, str]:
    """The param ``entry`` declares, or the first message refusing it."""
    if not isinstance(entry, dict):
        return f"{where}: must be a mapping"
    strategy = entry.get("strategy")
    row = _STRATEGIES.get(strategy) if _is_text(strategy) else None
    if row is None:
        known = ", ".join(STRATEGY_NAMES)
        return f"{where}: unknown strategy {strategy!r} (known: {known})"
    if row.window:
        name_key, names = "names", entry.get("names")
        pair = isinstance(names, list) and len(names) == 2
        if not (pair and all(map(_is_text, names))):
            return f"{where}: {strategy} needs 'names: [lo, hi]'"
    else:
        name_key, names = "name", [entry.get("name")]
        if not (_is_text(names[0]) and names[0]):
            return f"{where}: missing 'name'"
    options = {k: v for k, v in entry.items() if k not in ("strategy", name_key)}
    types = {**row.required, **row.optional}
    missing = sorted(set(row.required) - set(options))
    if missing:
        return (
            f"{where}: strategy {strategy!r} missing option(s): "
            + ", ".join(missing)
        )
    unknown = sorted(set(options) - set(types))
    if unknown:
        return f"{where}: unknown option(s) for {strategy!r}: " + ", ".join(unknown)
    if "pool" in types:
        if ("values" in options) == ("pool" in options):
            return f"{where}: {strategy!r} needs exactly one of 'values' or 'pool'"
        pool = options.get("pool")
        if "pool" in options and not (_is_text(pool) and pool in pools):
            return f"{where}: pool {pool!r} is not declared"
        values = options["values"] if "values" in options else pools[pool]
        if not isinstance(values, list) or not values:
            return f"{where}: value list must be non-empty"
        min_n, max_n = options.get("min_n"), options.get("max_n")
        if "min_n" in types and not (
            _is_int(min_n) and _is_int(max_n) and 1 <= min_n <= max_n <= len(values)
        ):
            return f"{where}: need 1 <= min_n <= max_n <= {len(values)} (pool size)"
    if row.ordered:
        lo_key, hi_key = row.ordered
        low, high = options[lo_key], options[hi_key]
        if not (_finite(low) and _finite(high) and low <= high):
            return f"{where}: need numeric {lo_key} <= {hi_key}"
        span = int(high) - int(low) + 1
        if row.max_values is not None and span > row.max_values:
            return (
                f"{where}: {strategy} range {lo_key}..{hi_key} holds {span} "
                f"values, more than {row.max_values}"
            )
    base = options.get("base")
    if "base" in types and not (_is_text(base) and base in seen):
        return (
            f"{where}: offset base {base!r} must name an "
            "*earlier* param of the same template"
        )
    duplicate = [n for n in names if n in seen]
    if duplicate:
        return f"{where}: duplicate param name(s): " + ", ".join(duplicate)
    for key, value in options.items():
        check, kind = types[key]
        if not check(value):
            return f"{where}: option {key!r} must be {kind}"
    return ParamSpec(strategy=strategy, names=tuple(names), options=options)


def _check_families(entries, errors: list[str]) -> list[FamilySpec]:
    if not isinstance(entries, list) or not entries:
        errors.append("families must be a non-empty list")
        return []
    families: list[FamilySpec] = []
    seen: set = set()
    for entry in entries:
        if not isinstance(entry, dict) or not _is_text(entry.get("name")):
            errors.append(f"family entry {entry!r} needs a 'name'")
            continue
        name = entry["name"]
        if name in seen:
            errors.append(f"duplicate family {name!r}")
            continue
        values, messages = _walk(entry, _FAMILY_FIELDS, f"family {name!r}")
        errors.extend(messages)
        if messages:
            continue
        seen.add(name)
        weight = float(values["weight"])
        families.append(FamilySpec(name, weight, values["description"]))
    if families and not any(f.weight > 0 for f in families):
        errors.append("at least one family must have a positive weight")
    return families


def _check_templates(
    entries, families: list[FamilySpec], pools: dict, errors: list[str]
) -> list[TemplateSpec]:
    if not isinstance(entries, list) or not entries:
        errors.append("templates must be a non-empty list")
        return []
    family_names = {f.name for f in families}
    templates: list[TemplateSpec] = []
    seen: set = set()
    for entry in entries:
        if not isinstance(entry, dict) or not _is_text(entry.get("name")):
            errors.append(f"template entry needs a 'name': {entry!r}")
            continue
        name = entry["name"]
        if name in seen:
            errors.append(f"duplicate template {name!r}")
            continue
        seen.add(name)
        where = f"template {name!r}"
        family = entry.get("family", "standard")
        if not _is_text(family) or (family_names and family not in family_names):
            errors.append(f"{where}: family {family!r} is not declared")
        values, messages = _walk(entry, _TEMPLATE_FIELDS, where)
        errors.extend(messages)
        if messages:
            continue
        sql = values["sql"]
        try:
            placeholders = {f for _, f, _, _ in Formatter().parse(sql) if f is not None}
        except ValueError as error:
            errors.append(f"{where}: sql is not a str.format template: {error}")
            continue
        params: list[ParamSpec] = []
        produced: set = set()
        for index, param_entry in enumerate(values["params"] or []):
            param = _check_param(
                param_entry, f"{where} param #{index}", pools, produced
            )
            if isinstance(param, str):
                errors.append(param)
                continue
            produced.update(param.names)
            params.append(param)
        missing = sorted(placeholders - produced)
        if missing:
            errors.append(
                f"{where}: sql placeholder(s) with no strategy: "
                + ", ".join("{%s}" % m for m in missing)
            )
        unused = sorted(produced - placeholders)
        if unused:
            errors.append(f"{where}: param(s) never used in sql: " + ", ".join(unused))
        templates.append(TemplateSpec(name, family, sql.strip(), tuple(params)))
    return templates


def _collect_query_refs(query) -> tuple[list, list]:
    """All (table name, binding) pairs and column refs, incl. subqueries."""
    from repro.sql.ast import Exists, InSubquery, walk

    tables = [(t.name, t.binding) for t in query.tables]
    columns = []
    exprs = [item.expr for item in query.select]
    exprs.extend(query.group_by)
    exprs.extend(o.expr for o in query.order_by)
    if query.where is not None:
        exprs.append(query.where)
    if query.having is not None:
        exprs.append(query.having)
    for expr in exprs:
        for node in walk(expr):
            if type(node).__name__ == "ColumnRef":
                columns.append(node)
            elif isinstance(node, (InSubquery, Exists)):
                sub_tables, sub_columns = _collect_query_refs(node.query)
                tables.extend(sub_tables)
                columns.extend(sub_columns)
    return tables, columns


def _validate_template_sql(
    tspec: TemplateSpec, spec: WorkloadSpec, errors: list[str]
) -> None:
    """Render once with a probe rng, parse, and check the vocabulary."""
    from repro.sql.parser import parse

    prefix = f"template {tspec.name!r}"
    try:
        sampler = _template_sampler(tspec, spec)
        sql = tspec.sql.format(
            **sampler(child_generator(0, f"spec-validate:{tspec.name}"))
        )
    except (KeyError, IndexError, ValueError, OverflowError) as error:
        errors.append(f"{prefix}: render failed: {error}")
        return
    try:
        query = parse(sql)
    except ParseError as error:
        errors.append(f"{prefix}: rendered SQL does not parse: {error}")
        return
    tables, columns = _collect_query_refs(query)
    bindings: dict = {}
    for table_name, binding in tables:
        if table_name not in spec.tables:
            errors.append(
                f"{prefix}: table {table_name!r} is not declared in tables"
            )
        else:
            bindings[binding] = table_name
    for column in columns:
        table_name = bindings.get(column.table)
        if table_name is None:
            continue  # unqualified or unknown binding: parser's concern
        declared = spec.tables[table_name]
        if column.name not in declared:
            errors.append(
                f"{prefix}: column {column.table}.{column.name} is not a "
                f"declared column of {table_name!r}"
            )


def validate_spec_data(data: dict) -> tuple[Optional[WorkloadSpec], list[str]]:
    """Validate raw spec data; returns (spec or None, error messages)."""
    if not isinstance(data, dict):
        return None, ["spec root must be a mapping"]
    values, errors = _walk(data, _SPEC_FIELDS)
    pools = data.get("pools") if isinstance(data.get("pools"), dict) else {}
    families = _check_families(data.get("families"), errors)
    templates = _check_templates(data.get("templates"), families, pools, errors)
    if errors:
        return None, errors
    spec = WorkloadSpec(
        name=values["name"],
        description=values["description"],
        catalog=dict(data["catalog"]),
        tables={t: list(c) for t, c in data["tables"].items()},
        pools={p: list(v) for p, v in pools.items()},
        families=tuple(families),
        templates=tuple(templates),
        date_span_days=values["defaults.date_span_days"],
    )
    # Vocabulary pass: render each template once, parse it, and check
    # every table/column against the declared schema.
    for tspec in spec.templates:
        _validate_template_sql(tspec, spec, errors)
    if errors:
        return None, errors
    return spec, []


def load_workload_spec(path: Union[str, Path]) -> WorkloadSpec:
    """Load and validate one spec file (``.yaml``/``.yml`` or ``.json``).

    Raises:
        WorkloadSpecError: on parse or validation failure; the exception
            carries the individual messages in ``.errors``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise WorkloadSpecError(f"cannot read workload spec {path}: {error}")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as error:
            raise WorkloadSpecError(f"{path}: invalid JSON: {error}")
    else:
        data = parse_simple_yaml(text)
    spec, errors = validate_spec_data(data)
    if spec is None:
        raise WorkloadSpecError(
            f"invalid workload spec {path}: {len(errors)} error(s):\n  "
            + "\n  ".join(errors),
            errors=tuple(errors),
        )
    return replace(spec, source=str(path))


# ----------------------------------------------------------------------
# Built-in spec directory and workload resolution
# ----------------------------------------------------------------------


def builtin_spec_dir() -> Path:
    """The checked-in ``specs/`` directory (env ``REPRO_SPEC_DIR`` overrides)."""
    override = os.environ.get("REPRO_SPEC_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "specs"


def builtin_workload_names() -> list[str]:
    """Names of the checked-in workload specs (file stems, sorted)."""
    directory = builtin_spec_dir()
    if not directory.is_dir():
        return []
    return sorted(
        p.stem
        for p in directory.iterdir()
        if p.suffix.lower() in (".yaml", ".yml", ".json")
    )


@lru_cache(maxsize=None)
def _load_builtin(name: str) -> CompiledWorkload:
    for suffix in (".yaml", ".yml", ".json"):
        candidate = builtin_spec_dir() / f"{name}{suffix}"
        if candidate.exists():
            return compile_workload(load_workload_spec(candidate))
    known = ", ".join(builtin_workload_names()) or "none found"
    raise WorkloadSpecError(
        f"unknown workload {name!r}; built-in specs: {known} "
        f"(searched {builtin_spec_dir()})"
    )


def resolve_workload(ref: WorkloadRef) -> CompiledWorkload:
    """Resolve a workload reference to a compiled workload.

    ``ref`` may be a built-in spec name (``tpcds``), a path to a spec
    file, an already-loaded :class:`WorkloadSpec`, or a
    :class:`CompiledWorkload` (returned unchanged).
    """
    if isinstance(ref, CompiledWorkload):
        return ref
    if isinstance(ref, WorkloadSpec):
        return compile_workload(ref)
    if isinstance(ref, Path):
        return compile_workload(load_workload_spec(ref))
    if isinstance(ref, str):
        looks_like_path = (
            os.sep in ref
            or "/" in ref
            or ref.lower().endswith((".yaml", ".yml", ".json"))
        )
        if looks_like_path:
            return compile_workload(load_workload_spec(Path(ref)))
        return _load_builtin(ref)
    raise WorkloadSpecError(f"cannot resolve workload reference {ref!r}")


def build_catalog_for(spec: WorkloadSpec, scale: Optional[float] = None,
                      seed: Optional[int] = None):
    """Build the catalog a spec's queries run against, from its recipe.

    ``scale``/``seed`` override the recipe's defaults when given.
    """
    recipe = spec.catalog
    kind = recipe.get("kind")
    if kind == "tpcds":
        from repro.workloads.tpcds import build_tpcds_catalog

        return build_tpcds_catalog(
            scale_factor=float(
                scale if scale is not None
                else recipe.get("scale_factor", 1.0)
            ),
            seed=int(seed if seed is not None else recipe.get("seed", 42)),
        )
    if kind == "customer":
        from repro.workloads.customer import build_customer_catalog

        return build_customer_catalog(
            seed=int(seed if seed is not None else recipe.get("seed", 99)),
            scale=float(
                scale if scale is not None else recipe.get("scale", 1.0)
            ),
        )
    raise WorkloadSpecError(f"unknown catalog kind {kind!r}")


def describe_workload(ref: WorkloadRef) -> str:
    """Human-readable summary of a workload spec."""
    compiled = resolve_workload(ref)
    spec = compiled.spec
    per_family: dict = {}
    for template in compiled.templates:
        per_family.setdefault(template.family, []).append(template.name)
    lines = [
        f"workload {spec.name}  (spec_version {SPEC_SCHEMA_VERSION})",
        f"  {spec.description}" if spec.description else "  (no description)",
        f"  catalog : {spec.catalog}",
        f"  tables  : {len(spec.tables)}  "
        f"({', '.join(sorted(spec.tables))})",
        f"  templates: {len(compiled.templates)} in "
        f"{len(spec.families)} families",
    ]
    total = sum(f.weight for f in spec.families) or 1.0
    for family in spec.families:
        members = per_family.get(family.name, [])
        lines.append(
            f"    {family.name:<12} weight {family.weight / total:5.2f}  "
            f"{len(members):>2} templates"
        )
        for member_name in members:
            template = next(
                t for t in compiled.templates if t.name == member_name
            )
            strategies = ", ".join(
                p.strategy
                for ts in spec.templates
                if ts.name == member_name
                for p in ts.params
            )
            lines.append(
                f"      {template.name:<32} [{strategies or 'no params'}]"
            )
    return "\n".join(lines)
