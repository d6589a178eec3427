"""Scalar electronic descriptors: weighted orbital energies and binding energy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import DegenerateWeights, InvalidArgument, MissingReference, ParseError
from .molgraph import load_json


@dataclass(frozen=True)
class OrbitalRecord:
    """One orbital: occupation number and orbital energy (atomic units)."""

    occupancy: float
    energy: float


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean: float
    std: float


def e_gcn0(records: Iterable[OrbitalRecord]) -> float:
    """Occupation-weighted mean orbital energy.

    sum(o_i * e_i) / sum(o_i). Raises DegenerateWeights when the total
    occupation is zero and InvalidArgument on a negative occupation.
    """
    num = 0.0
    den = 0.0
    for rec in records:
        if rec.occupancy < 0:
            raise InvalidArgument(f"negative occupancy {rec.occupancy}")
        num += rec.occupancy * rec.energy
        den += rec.occupancy
    if den == 0.0:
        raise DegenerateWeights("total occupation is zero")
    return num / den


def group_stats(values: Iterable[tuple[str, float]]) -> dict[str, GroupStats]:
    """Count, mean and population standard deviation per group label."""
    groups: dict[str, list[float]] = {}
    for label, value in values:
        groups.setdefault(label, []).append(value)
    out: dict[str, GroupStats] = {}
    for label in sorted(groups):
        xs = groups[label]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        out[label] = GroupStats(count=len(xs), mean=mean, std=math.sqrt(var))
    return out


def binding_energy(
    e_tot: float,
    composition: Mapping[str, int],
    refs: Mapping[str, float],
) -> float:
    """Total energy minus the sum of isolated-atom reference energies.

    composition maps element symbols to atom counts (hydrogen included);
    a missing reference energy raises MissingReference.
    """
    total = e_tot
    for el in sorted(composition):
        count = composition[el]
        if count == 0:
            continue
        if el not in refs:
            raise MissingReference(f"no reference energy for element {el!r}")
        total -= count * refs[el]
    return total


def load_orbital_lines(
    lines: Iterable[str],
) -> list[tuple[str, str | None, OrbitalRecord]]:
    """Parse orbital-table lines into (atom id, group label, record) rows.

    One object per line with numeric fields ``occ`` and ``energy``, a
    required ``atom`` id and an optional free-form ``group`` label.
    Comment lines starting with '#' and blank lines are skipped.
    """
    out: list[tuple[str, str | None, OrbitalRecord]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = load_json(line)
        except ValueError as exc:
            raise ParseError(f"orbital line {lineno}: {exc}") from exc
        if not isinstance(obj, dict) or "occ" not in obj or "energy" not in obj:
            raise ParseError(f"orbital line {lineno}: need 'occ' and 'energy'")
        if "atom" not in obj:
            raise ParseError(f"orbital line {lineno}: need an 'atom' id")
        where = f"orbital line {lineno}"
        rec = OrbitalRecord(
            occupancy=_finite(obj, "occ", where),
            energy=_finite(obj, "energy", where),
        )
        group = obj.get("group")
        out.append((str(obj["atom"]), None if group is None else str(group), rec))
    return out


def load_reference_lines(lines: Iterable[str]) -> dict[str, float]:
    """Parse reference-energy lines: objects with ``element`` and ``energy``."""
    refs: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = load_json(line)
        except ValueError as exc:
            raise ParseError(f"reference line {lineno}: {exc}") from exc
        if not isinstance(obj, dict) or "element" not in obj or "energy" not in obj:
            raise ParseError(
                f"reference line {lineno}: need 'element' and 'energy'"
            )
        where = f"reference line {lineno}"
        refs[str(obj["element"])] = _finite(obj, "energy", where)
    return refs


def _finite(obj: Mapping[str, Any], key: str, where: str) -> float:
    """A loader's numeric field as a float; ParseError unless it is a
    finite number, as for record properties. A bool is no number."""
    value = obj[key]
    try:
        if isinstance(value, bool):
            raise ValueError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: {key} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ParseError(f"{where}: {key} is not finite: {value!r}")
    return number
