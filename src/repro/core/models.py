"""Parametric semi-variogram models.

After computing the empirical semi-variogram, the paper "identifies" it to a
particular model type (Section III-A, citing Wackernagel's geostatistics
text).  These are the classical bounded and unbounded models; all are valid
(conditionally negative-definite) variograms, which guarantees the kriging
system has a meaningful solution.

Every model maps a lag array ``h >= 0`` to ``gamma(h)`` with ``gamma(0) = 0``
(the nugget, when present, is a discontinuity at ``0+``).
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VariogramModel",
    "LinearVariogram",
    "SphericalVariogram",
    "ExponentialVariogram",
    "GaussianVariogram",
    "PowerVariogram",
    "NuggetVariogram",
    "variogram_from_state",
]


def _lags(h: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("lags must be non-negative")
    return arr


class VariogramModel(abc.ABC):
    """Base class: a callable ``gamma(h)`` with named parameters."""

    @abc.abstractmethod
    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        """Model value for strictly positive lags (no origin handling)."""

    def __call__(self, h: np.ndarray | float) -> np.ndarray | float:
        arr = _lags(h)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.where(arr == 0.0, 0.0, self._gamma_positive(arr))
        return float(out[0]) if scalar else out

    @property
    def nugget(self) -> float:
        """Discontinuity at the origin (0 unless the model defines one)."""
        return 0.0

    def to_state(self) -> dict:
        """JSON-safe state: model family plus its dataclass parameters.

        Every concrete model is a frozen dataclass of plain floats, so the
        state round-trips bitwise through JSON (``repr``-based float
        serialization is exact).  Restore with :func:`variogram_from_state`.
        """
        return {
            "family": type(self).__name__,
            "params": {
                f.name: float(getattr(self, f.name))
                for f in dataclasses.fields(self)  # type: ignore[arg-type]
            },
        }


@dataclass(frozen=True)
class LinearVariogram(VariogramModel):
    """``gamma(h) = slope * h`` — the scale-free default prior.

    Ordinary-kriging weights are invariant to a multiplicative rescaling of
    the variogram, so the slope only matters for the kriging *variance*, not
    for the interpolated value.  This makes the linear model a robust choice
    before enough simulations exist to identify a richer model.
    """

    slope: float = 1.0

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ValueError(f"slope must be > 0, got {self.slope}")

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return self.slope * h


@dataclass(frozen=True)
class SphericalVariogram(VariogramModel):
    """Bounded model reaching ``sill`` exactly at ``range_``."""

    sill: float
    range_: float
    nugget_: float = 0.0

    def __post_init__(self) -> None:
        if self.sill <= 0:
            raise ValueError(f"sill must be > 0, got {self.sill}")
        if self.range_ <= 0:
            raise ValueError(f"range_ must be > 0, got {self.range_}")
        if self.nugget_ < 0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget_}")

    @property
    def nugget(self) -> float:
        return self.nugget_

    @staticmethod
    def shape(r: np.ndarray) -> np.ndarray:
        """Unit-sill, zero-nugget model at scaled lags ``r = h / range_``."""
        return np.where(r >= 1.0, 1.0, 1.5 * r - 0.5 * r**3)

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return self.nugget_ + self.sill * self.shape(h / self.range_)


@dataclass(frozen=True)
class ExponentialVariogram(VariogramModel):
    """``gamma(h) = nugget + sill (1 - exp(-3h / range))`` (practical range)."""

    sill: float
    range_: float
    nugget_: float = 0.0

    def __post_init__(self) -> None:
        if self.sill <= 0:
            raise ValueError(f"sill must be > 0, got {self.sill}")
        if self.range_ <= 0:
            raise ValueError(f"range_ must be > 0, got {self.range_}")
        if self.nugget_ < 0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget_}")

    @property
    def nugget(self) -> float:
        return self.nugget_

    @staticmethod
    def shape(r: np.ndarray) -> np.ndarray:
        """Unit-sill, zero-nugget model at scaled lags ``r = h / range_``.

        ``-expm1`` keeps full precision where ``1 - exp`` would cancel
        (lags far below the range, where fits often end).
        """
        return -np.expm1(-3.0 * r)

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return self.nugget_ + self.sill * self.shape(h / self.range_)


@dataclass(frozen=True)
class GaussianVariogram(VariogramModel):
    """``gamma(h) = nugget + sill (1 - exp(-3h^2 / range^2))`` — very smooth fields."""

    sill: float
    range_: float
    nugget_: float = 0.0

    def __post_init__(self) -> None:
        if self.sill <= 0:
            raise ValueError(f"sill must be > 0, got {self.sill}")
        if self.range_ <= 0:
            raise ValueError(f"range_ must be > 0, got {self.range_}")
        if self.nugget_ < 0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget_}")

    @property
    def nugget(self) -> float:
        return self.nugget_

    @staticmethod
    def shape(r: np.ndarray) -> np.ndarray:
        """Unit-sill, zero-nugget model at scaled lags ``r = h / range_``
        (``-expm1`` for precision, as in :class:`ExponentialVariogram`)."""
        return -np.expm1(-3.0 * r**2)

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return self.nugget_ + self.sill * self.shape(h / self.range_)


@dataclass(frozen=True)
class PowerVariogram(VariogramModel):
    """``gamma(h) = scale * h^exponent`` with ``0 < exponent < 2`` (unbounded)."""

    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if not 0.0 < self.exponent < 2.0:
            raise ValueError(f"exponent must be in (0, 2), got {self.exponent}")

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return self.scale * h**self.exponent


@dataclass(frozen=True)
class NuggetVariogram(VariogramModel):
    """Pure-nugget model: spatially uncorrelated field (kriging = local mean)."""

    nugget_: float = 1.0

    def __post_init__(self) -> None:
        if self.nugget_ <= 0:
            raise ValueError(f"nugget must be > 0, got {self.nugget_}")

    @property
    def nugget(self) -> float:
        return self.nugget_

    def _gamma_positive(self, h: np.ndarray) -> np.ndarray:
        return np.full_like(h, self.nugget_)


_MODEL_FAMILIES: dict[str, type[VariogramModel]] = {
    cls.__name__: cls
    for cls in (
        LinearVariogram,
        SphericalVariogram,
        ExponentialVariogram,
        GaussianVariogram,
        PowerVariogram,
        NuggetVariogram,
    )
}


def variogram_from_state(state: dict) -> VariogramModel:
    """Rebuild a model from :meth:`VariogramModel.to_state` output.

    The inverse hook the snapshot/restore layer uses: parameters pass back
    through the dataclass constructor, so a restored model validates its
    invariants and evaluates bitwise-identically to the snapshotted one.
    """
    try:
        family = state["family"]
        params = state["params"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed variogram state {state!r}") from exc
    cls = _MODEL_FAMILIES.get(family)
    if cls is None:
        raise ValueError(
            f"unknown variogram family {family!r}; expected one of "
            f"{sorted(_MODEL_FAMILIES)}"
        )
    return cls(**{name: float(value) for name, value in params.items()})
