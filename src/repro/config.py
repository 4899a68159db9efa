"""Declarative experiment configuration.

One frozen dataclass that names everything an experiment needs — chip,
stack height, rotation schedule, cooling option, temperature threshold,
thread count, package overrides — plus ``run()`` to execute the full
pipeline. Downstream users replicating a custom configuration write one
spec instead of wiring five modules; the spec also round-trips through
a plain dict for storage in result logs.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields

from .cooling.options import get_cooling
from .errors import ConfigurationError
from .perfsim.npb import NPB_ORDER
from .perfsim.system import config_for_stack
from .power.processors import get_chip
from .stack.chipstack import check_stack_height

#: A dataclass's resolved field annotations (resolving them costs more
#: than the rest of a parse).
_type_hints = functools.cache(typing.get_type_hints)


def fields_to_dict(obj) -> dict:
    """A flat dataclass as a JSON-ready dict, ``None`` fields left out.

    Fields keep their declaration order; :func:`fields_from_dict` is
    the inverse.
    """
    return {f.name: getattr(obj, f.name) for f in dataclass_fields(obj)
            if getattr(obj, f.name) is not None}


def require_finite(obj, what: str) -> None:
    """Reject NaN and ±inf in a dataclass's float fields.

    Floats inside a tuple field (such as a workload trace) are checked
    per entry. Raises :class:`ConfigurationError` naming ``what`` and
    the field, so ``json.loads``'s ``NaN``/``Infinity`` and a CLI
    ``--rate inf`` stop at the config boundary.
    """
    for f in dataclass_fields(obj):
        value = getattr(obj, f.name)
        entries = (enumerate(value) if isinstance(value, (tuple, list))
                   else [(None, value)])
        for i, entry in entries:
            items = entry if isinstance(entry, (tuple, list)) else (entry,)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in items):
                name = f.name if i is None else f"{f.name}[{i}]"
                raise ConfigurationError(
                    f"{what} {name!r} must be finite, got {entry!r}")


def fields_from_dict(cls, data: dict, what: str):
    """Strict parse of a flat dataclass ``cls`` from its JSON object.

    Unknown keys are named and rejected. Each value must have its
    field's type — int, float, str or bool — except that an int widens
    to float, and ``null`` is taken only by an ``X | None`` field.
    Errors are :class:`ConfigurationError` naming ``what`` and the key.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in dataclass_fields(cls)})
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s): {', '.join(unknown)}")
    kwargs = dict(data)
    _type_scalars(cls, kwargs, what)
    return cls(**kwargs)


def _type_scalars(cls, data: dict, what: str) -> None:
    """Type in place, by :func:`typed_value`, each entry of ``data``
    naming a scalar field of dataclass ``cls`` (``X`` or ``X | None``
    for X in int, float, str, bool; ``null`` only for the latter);
    leave the other entries alone."""
    hints = _type_hints(cls)
    for name, value in data.items():
        kind, *rest = typing.get_args(hints.get(name)) or (hints.get(name),)
        if (kind in (int, float, str, bool) and set(rest) <= {type(None)}
                and not (value is None and rest)):
            data[name] = typed_value(kind, value, name, what)


def typed_value(kind: type, value, name: str, what: str):
    """``value`` as the ``kind`` (int, float, str or bool) of key
    ``name``: the per-key rule of :func:`fields_from_dict`.

    An int widens to float; a bool is not an int; anything else of
    the wrong type is a :class:`ConfigurationError` naming ``what`` and
    the key.
    """
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ConfigurationError(
            f"{what} key {name!r} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, self-describing experiment configuration.

    Attributes:
        chip: chip name ("low-power-cmp", ...).
        n_chips: stack height.
        cooling: cooling option name.
        flip: apply the Section 4.2 alternating-rotation schedule.
        threshold_c: temperature limit override (None = chip default).
        threads: simulated thread count (None = all cores).
        benchmarks: NPB programs to evaluate (None = all nine).
        package_overrides: PackageParams field overrides (calibration
            probes, ablations).
        label: free-form tag recorded in results.
    """

    chip: str = "high-frequency-cmp"
    n_chips: int = 4
    cooling: str = "water"
    flip: bool = False
    threshold_c: float | None = None
    threads: int | None = None
    benchmarks: tuple[str, ...] | None = None
    package_overrides: dict[str, float] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        """Refuse a spec the pipeline cannot run: unknown names, a
        non-finite threshold, and NPB times for a chip whose cores do
        not fit the mesh."""
        require_finite(self, "ExperimentSpec")
        if self.n_chips < 1:
            raise ConfigurationError("n_chips must be >= 1")
        check_stack_height(self.n_chips)
        if self.threads is not None and self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        chip = get_chip(self.chip)
        get_cooling(self.cooling)
        try:
            self.package_params()
        except TypeError as exc:
            raise ConfigurationError(f"package_overrides: {exc}") from None
        bad = [b for b in self.benchmarks or () if b.lower() not in NPB_ORDER]
        if bad:
            raise ConfigurationError(
                f"unknown NPB program(s) {', '.join(map(repr, bad))}; "
                f"known: {', '.join(NPB_ORDER)}")
        if self.programs:
            config_for_stack(chip, self.n_chips)

    @property
    def programs(self) -> tuple[str, ...]:
        """The NPB programs to time (None = all nine)."""
        return NPB_ORDER if self.benchmarks is None else self.benchmarks

    # -- construction helpers -------------------------------------------------

    def with_cooling(self, cooling: str) -> "ExperimentSpec":
        """A copy under a different cooling option."""
        return replace(self, cooling=cooling)

    def to_dict(self) -> dict:
        """Plain-dict form for result logs."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, *, strict: bool = True
                  ) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict` (tuples restored).

        Args:
            data: the spec as a plain dict (e.g. parsed JSON).
            strict: reject unknown top-level keys with a
                :class:`~repro.errors.ConfigurationError` naming them.
                A typoed key silently ignored would run a *different*
                experiment than the one requested — and silently
                collide in the serve-layer result cache. ``False``
                drops unknown keys (forward-compat readers of old
                result logs).
        """
        from .thermal.package import PackageParams
        what = "ExperimentSpec"
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{what} must be a JSON object, got {type(data).__name__}")
        d = dict(data)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            if strict:
                raise ConfigurationError(
                    f"unknown {what} key(s): "
                    f"{', '.join(repr(k) for k in unknown)} "
                    f"(known keys: {', '.join(sorted(known))})")
            for k in unknown:
                d.pop(k)
        _type_scalars(cls, d, what)
        benchmarks = d.get("benchmarks")
        if benchmarks is not None:
            if (not isinstance(benchmarks, (list, tuple))
                    or not all(isinstance(b, str) for b in benchmarks)):
                raise ConfigurationError(
                    f"{what} key 'benchmarks' must be a list of NPB "
                    f"names, got {benchmarks!r}")
            d["benchmarks"] = tuple(benchmarks)
        overrides = d.get("package_overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigurationError(
                f"{what} key 'package_overrides' must be an object, "
                f"got {overrides!r}")
        d["package_overrides"] = dict(overrides)
        _type_scalars(PackageParams, d["package_overrides"],
                      "package_overrides")
        return cls(**d)

    # -- pipeline pieces --------------------------------------------------------

    def package_params(self):
        """The (possibly overridden) thermal package constants."""
        from .thermal.package import DEFAULT_PACKAGE
        if not self.package_overrides:
            return DEFAULT_PACKAGE
        return replace(DEFAULT_PACKAGE, **self.package_overrides)

    # -- execution -----------------------------------------------------------------

    def evaluate(self, resilience=None):
        """This spec's :class:`~repro.core.point.PointOutcome` from
        :func:`repro.core.point.evaluate` (``resilience=None``: the
        full pipeline once, errors raised).

        The thermal model comes from the bounded ``model_for`` cache
        campaigns and the fleet share, so a spec that differs from an
        earlier one only in threshold, threads or benchmarks searches
        temperatures its model already holds.
        """
        from .core.point import evaluate
        from .stack.chipstack import flip_rotations
        return evaluate(
            self.chip, self.n_chips, self.cooling,
            threshold_c=self.threshold_c,
            rotations=flip_rotations(self.n_chips) if self.flip else (),
            params=self.package_params(), threads=self.threads,
            programs=self.programs, resilience=resilience)

    def run(self) -> "ExperimentResult":
        """Execute the power -> thermal -> performance pipeline."""
        return ExperimentResult.of(self, self.evaluate())


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one :meth:`ExperimentSpec.run`."""

    spec: ExperimentSpec
    feasible: bool
    f_ghz: float
    max_temp_c: float
    total_power_w: float
    npb_time_s: dict[str, float]

    @classmethod
    def of(cls, spec: ExperimentSpec, outcome) -> "ExperimentResult":
        """The result of ``spec`` from its evaluated
        :class:`~repro.core.point.PointOutcome`."""
        point = outcome.point
        return cls(spec=spec, feasible=point.feasible, f_ghz=point.f_ghz,
                   max_temp_c=point.max_temp_c,
                   total_power_w=point.total_power_w,
                   npb_time_s=outcome.npb_time_s)

    def speedup_over(self, other: "ExperimentResult") -> dict[str, float]:
        """Per-benchmark T(other)/T(self) — >1 means self is faster."""
        if not (self.feasible and other.feasible):
            raise ConfigurationError(
                "speedup needs two feasible results"
            )
        common = set(self.npb_time_s) & set(other.npb_time_s)
        if not common:
            raise ConfigurationError("no common benchmarks")
        return {name: other.npb_time_s[name] / self.npb_time_s[name]
                for name in sorted(common)}
