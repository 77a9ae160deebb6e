"""Unit 3-vector measurement directions and standard geometries."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Direction3:
    """A measurement direction: unit 3-vector with components (x, y, z)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValidationError(f"direction ({self.x}, {self.y}, {self.z}) has a non-finite component")
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(n2 - 1.0) > UNIT_TOL:
            raise ValidationError(
                f"direction ({self.x}, {self.y}, {self.z}) is not a unit vector: "
                f"|v|^2 - 1 = {n2 - 1.0:.3e}"
            )

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction3":
        """Build a direction from an arbitrary nonzero 3-vector."""
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_polar(cls, theta: float, phi: float = 0.0) -> "Direction3":
        """Direction at polar angle theta from +z, azimuth phi from +x."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def dot(self, other: "Direction3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


X_AXIS = Direction3(1.0, 0.0, 0.0)
Y_AXIS = Direction3(0.0, 1.0, 0.0)
Z_AXIS = Direction3(0.0, 0.0, 1.0)


def angle_between(d1: Direction3, d2: Direction3) -> float:
    """Angle in [0, pi] between two unit directions."""
    return math.acos(max(-1.0, min(1.0, d1.dot(d2))))


def max_violation_triple() -> tuple[Direction3, Direction3, Direction3]:
    """The (a, b, c) triple with b.c = 0 and a = (b - c)/sqrt(2).

    Sequential measurements give |a.b - a.c| + b.c = sqrt(2) here, not the
    maximum: the coplanar triple at polar angles 0, 60 and 120 degrees
    reaches 3/2 (Leggett & Garg, PRL 54, 857 (1985)).
    """
    b = Z_AXIS
    c = X_AXIS
    s = 1.0 / math.sqrt(2.0)
    a = Direction3(-s, 0.0, s)  # (b - c)/sqrt(2)
    return a, b, c


def tsirelson_quadruple() -> tuple[Direction3, Direction3, Direction3, Direction3]:
    """The x-z plane directions at polar angles 0, 90, 45 and 135 degrees, giving CHSH = 2*sqrt(2) on a singlet."""
    return tuple(Direction3.from_polar(math.radians(d)) for d in (0.0, 90.0, 45.0, 135.0))
