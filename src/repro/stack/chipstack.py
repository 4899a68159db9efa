"""3-D chip stack configuration.

A :class:`StackConfig` describes the vertical integration the paper
evaluates: N identical dies (Fig. 5 shows four), optionally with the
Section 4.2 rotation schedule applied, bonded with glue/TIM, under a
heat spreader and heatsink. The thermal builder consumes this plus a
cooling option.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..floorplan import Floorplan, rotate_180
from ..power.processors import ChipSpec

#: Tallest stack the thermal model is built for: more than twice the
#: paper's tallest (15). A die factor holds ``die_grid**2 * n_chips**2``
#: doubles of Green's functions, so without a cap one request could
#: make the model allocate gigabytes (about 8 GB at 2,000 chips).
MAX_STACK_CHIPS = 32


def check_stack_height(n_chips: int) -> None:
    """Refuse a stack taller than :data:`MAX_STACK_CHIPS`."""
    if n_chips > MAX_STACK_CHIPS:
        raise ConfigurationError(
            f"n_chips must be at most {MAX_STACK_CHIPS}, got {n_chips}")


@dataclass(frozen=True)
class StackConfig:
    """N stacked instances of one chip design.

    Attributes:
        chip: the chip replicated in every layer.
        n_chips: stack height (the paper sweeps 1..15; at most
            :data:`MAX_STACK_CHIPS`).
        rotations: per-die rotation flags, bottom first; True means the
            die's floorplan is rotated 180 degrees. Defaults to no
            rotation. Length must equal ``n_chips``.
    """

    chip: ChipSpec
    n_chips: int
    rotations: tuple[bool, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ConfigurationError(
                f"stack needs at least one chip, got {self.n_chips}"
            )
        check_stack_height(self.n_chips)
        if self.rotations and len(self.rotations) != self.n_chips:
            raise ConfigurationError(
                f"rotation schedule length {len(self.rotations)} does not "
                f"match stack height {self.n_chips}"
            )

    @property
    def effective_rotations(self) -> tuple[bool, ...]:
        """The rotation schedule, defaulting to all-False."""
        if self.rotations:
            return self.rotations
        return (False,) * self.n_chips

    def die_floorplans(self) -> tuple[Floorplan, ...]:
        """Per-die floorplans, bottom first, rotations applied."""
        base = self.chip.floorplan()
        if not any(self.effective_rotations):
            return (base,) * self.n_chips
        flipped = rotate_180(base)
        return tuple(
            flipped if rot else base for rot in self.effective_rotations
        )

    def total_power_w(self, f_hz: float) -> float:
        """Aggregate stack power when every die runs at ``f_hz``."""
        return self.n_chips * self.chip.total_power_w(f_hz)

    def describe(self) -> str:
        """One-line description for result tables."""
        rot = "".join("F" if r else "." for r in self.effective_rotations)
        return f"{self.chip.name} x{self.n_chips} [{rot}]"


def flip_rotations(n_chips: int) -> tuple[bool, ...]:
    """The rotation flags of :func:`flip_even_layers`, bottom first."""
    return tuple(i % 2 == 1 for i in range(n_chips))


def flip_even_layers(chip: ChipSpec, n_chips: int) -> StackConfig:
    """The paper's Section 4.2 schedule: rotate all even layers 180 deg.

    Layer indices are zero-based from the bottom, so dies 1, 3, 5, ...
    (the paper's "even layers" counting from 1... the second, fourth...)
    are rotated; adjacent dies always differ, which is the property that
    overlaps core rows with cache areas.
    """
    return StackConfig(chip=chip, n_chips=n_chips,
                       rotations=flip_rotations(n_chips))


def uniform_stack(chip: ChipSpec, n_chips: int) -> StackConfig:
    """A stack with no rotation (the Fig. 5 baseline layout)."""
    return StackConfig(chip=chip, n_chips=n_chips)
