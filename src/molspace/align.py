"""Linear cross-protocol energy alignment.

Predicts a target-protocol energy from a source-protocol energy plus
optional structural count features:

    E1 ~ c0 * E0 + sum_i c_i * n_i + b0

Three feature modes: ``plain`` (no counts), ``composition`` (per-element
atom counts, hydrogens included) and ``gcn1`` (per-atom level-1 code
counts). The fit minimizes the sum of squared residuals plus
``ridge * ||(c0, c_i)||^2`` with the intercept left unpenalized, solved
through the normal equations. With ridge zero a singular system raises
RankDeficient instead of silently pseudo-inverting.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from typing import Iterable, Mapping, NamedTuple

from .coverage import record_type_counts
from .errors import (
    InvalidArgument,
    MissingProperty,
    ParseError,
    RankDeficient,
    UnseenFeature,
)
from .molgraph import HeavyGraph

MODES = ("plain", "composition", "gcn1")

DEFAULT_RIDGE = 1e-8
DEFAULT_OUTLIER_THRESHOLD = 30.0


class FeatureVector(NamedTuple):
    """Source energy plus sparse integer count features."""

    e0: float
    counts: Mapping[str, int]


class AlignmentModel(NamedTuple):
    mode: str
    c0: float
    coefficients: dict[str, float]
    b0: float
    ridge: float
    n_records: int
    mae: float
    rmsd: float


class ResidualStats(NamedTuple):
    n: int
    mae: float
    rmsd: float
    outliers: int


def record_features(
    g: HeavyGraph,
    e0_prop: str,
    mode: str,
    target_prop: str | None = None,
) -> tuple[FeatureVector, float | None]:
    """The feature/target pair of one record.

    Raises MissingProperty when the record lacks the source property (or
    the target property, when one is requested).
    """
    if mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}, got {mode!r}")
    for prop in (e0_prop, target_prop):
        if prop is not None and prop not in g.props:
            raise MissingProperty(f"record lacks property {prop!r}")
    if mode == "plain":
        counts: dict[str, int] = {}
    elif mode == "composition":
        counts = g.composition()
    else:
        counts = dict(record_type_counts(g, "gcn1"))
    target = None if target_prop is None else g.props[target_prop]
    return FeatureVector(e0=g.props[e0_prop], counts=counts), target


def _canonical_pairs(
    pairs: Iterable[tuple[FeatureVector, float | None]]
) -> list[tuple[FeatureVector, float]]:
    checked: list[tuple[FeatureVector, float]] = []
    for fv, target in pairs:
        if target is None:
            raise InvalidArgument("fit requires a target for every pair")
        checked.append((fv, target))
    # Sorting by content makes the fit independent of record order even
    # at the floating-point level.
    checked.sort(
        key=lambda p: (p[0].e0, tuple(sorted(p[0].counts.items())), p[1])
    )
    return checked


def check_non_negative(name: str, value: float) -> None:
    """A ridge or outlier threshold is finite and at least 0 (NaN is not)."""
    if not 0 <= value < inf:
        raise InvalidArgument(f"{name} must be finite and non-negative, got {value}")


def fit(
    pairs: Iterable[tuple[FeatureVector, float | None]],
    mode: str,
    ridge: float = DEFAULT_RIDGE,
) -> AlignmentModel:
    """Least-squares fit of the alignment form over feature/target pairs.

    mode names the feature mode the pairs were built with (record_features)
    and is stored in the model. Pass ridge 0.0 for an exact unregularized
    fit, which raises RankDeficient when the normal matrix is singular. The
    result is deterministic and independent of the order of the pairs.
    """
    # numpy's only use: imported here so that no other command loads it.
    import numpy as np

    check_non_negative("ridge", ridge)
    data = _canonical_pairs(pairs)
    if not data:
        raise InvalidArgument("fit requires at least one pair")
    if mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}, got {mode!r}")

    keys = sorted({k for fv, _ in data for k in fv.counts})
    dim = 1 + len(keys) + 1
    x = np.zeros((len(data), dim))
    y = np.zeros(len(data))
    key_pos = {k: 1 + idx for idx, k in enumerate(keys)}
    for row, (fv, target) in enumerate(data):
        x[row, 0] = fv.e0
        for k, count in fv.counts.items():
            x[row, key_pos[k]] = count
        x[row, dim - 1] = 1.0
        y[row] = target

    # Overflow gives a fit that is not finite, rejected below: no numpy
    # warning, which the interpreter's filters could turn into an error.
    with np.errstate(all="ignore"):
        gram = x.T @ x
        penalty = np.zeros((dim, dim))
        for idx in range(dim - 1):
            penalty[idx, idx] = ridge
        system = gram + penalty
        try:
            if ridge == 0.0 and np.linalg.matrix_rank(system) < dim:
                raise RankDeficient(
                    "normal matrix is singular; supply a positive ridge"
                )
            beta = np.linalg.solve(system, x.T @ y)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(str(exc)) from exc

    model = AlignmentModel(
        mode=mode,
        c0=float(beta[0]),
        coefficients={k: float(beta[key_pos[k]]) for k in keys},
        b0=float(beta[dim - 1]),
        ridge=float(ridge),
        n_records=len(data),
        mae=0.0,
        rmsd=0.0,
    )
    stats = residual_stats(model, data)
    model = model._replace(mae=stats.mae, rmsd=stats.rmsd)
    values = [model.c0, model.b0, model.mae, model.rmsd, *model.coefficients.values()]
    if not all(map(isfinite, values)):
        raise RankDeficient("fit has a coefficient or residual that is not finite")
    return model


def apply(model: AlignmentModel, fv: FeatureVector) -> float:
    """Predict the target-protocol value for one feature vector.

    A nonzero count under a key the model never saw raises UnseenFeature.
    """
    value = model.c0 * fv.e0 + model.b0
    for key, count in fv.counts.items():
        if count == 0:
            continue
        if key not in model.coefficients:
            raise UnseenFeature(f"feature {key!r} not in the fitted model")
        value += model.coefficients[key] * count
    return value


def residual_stats(
    model: AlignmentModel,
    pairs: Iterable[tuple[FeatureVector, float | None]],
    threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> ResidualStats:
    """MAE, RMSD and outlier count of model predictions against targets."""
    check_non_negative("threshold", threshold)
    abs_sum = 0.0
    sq_sum = 0.0
    outliers = 0
    n = 0
    for fv, target in pairs:
        if target is None:
            raise InvalidArgument("residual_stats requires targets")
        err = apply(model, fv) - target
        abs_sum += abs(err)
        sq_sum += err * err
        if abs(err) > threshold:
            outliers += 1
        n += 1
    if n == 0:
        raise InvalidArgument("residual_stats requires at least one pair")
    return ResidualStats(
        n=n,
        mae=abs_sum / n,
        rmsd=sqrt(sq_sum / n),
        outliers=outliers,
    )


def save_model(model: AlignmentModel) -> str:
    """Serialize a model as tab-separated key/value lines.

    Floats are written with repr so that loading reproduces them exactly.
    """
    lines = [
        "# alignment model",
        f"mode\t{model.mode}",
        f"ridge\t{model.ridge!r}",
        f"n_records\t{model.n_records}",
        f"c0\t{model.c0!r}",
        f"b0\t{model.b0!r}",
        f"mae\t{model.mae!r}",
        f"rmsd\t{model.rmsd!r}",
    ]
    for key in sorted(model.coefficients):
        lines.append(f"coef\t{key}\t{model.coefficients[key]!r}")
    return "\n".join(lines) + "\n"


def _finite(name: str, text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ParseError(f"model {name} must be finite, got {text!r}")
    return value


def load_model(text: str) -> AlignmentModel:
    """Inverse of save_model; ParseError on malformed text, a number that is
    not finite or an unknown feature mode."""
    fields: dict[str, str] = {}
    coefficients: dict[str, float] = {}
    try:
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if parts[0] == "coef":
                if len(parts) != 3:
                    raise ParseError(f"malformed coefficient line: {line!r}")
                coefficients[parts[1]] = _finite(f"coef {parts[1]}", parts[2])
            elif len(parts) == 2:
                fields[parts[0]] = parts[1]
            else:
                raise ParseError(f"malformed model line: {line!r}")
        model = AlignmentModel(
            mode=fields["mode"],
            c0=_finite("c0", fields["c0"]),
            coefficients=coefficients,
            b0=_finite("b0", fields["b0"]),
            ridge=_finite("ridge", fields["ridge"]),
            n_records=int(fields["n_records"]),
            mae=_finite("mae", fields["mae"]),
            rmsd=_finite("rmsd", fields["rmsd"]),
        )
    except KeyError as exc:
        raise ParseError(f"model text missing field {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"malformed model value: {exc}") from exc
    if model.mode not in MODES:
        raise ParseError(f"model mode must be one of {MODES}, got {model.mode!r}")
    return model
