"""2-D computational geometry for the ray tracer.

Everything operates on points as ``(x, y)`` float pairs.  The primitives
here are exactly the ones image-method ray tracing needs: segment
intersection (does a ray cross a wall / does a blocker occlude a leg),
point reflection across a wall line (to build mirror images), and angle
bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "segment_intersection",
    "segment_circle_intersects",
    "reflect_point_across_line",
    "angle_of",
    "normalize_angle",
    "normalize_angles",
    "distance",
]


@dataclass(frozen=True)
class Point:
    """A 2-D point in metres."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def __add__(self, other: Point) -> Point:
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> Point:
        """Scalar multiple of the position vector."""
        return Point(self.x * k, self.y * k)

    def norm(self) -> float:
        """Euclidean length of the position vector."""
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Point
    b: Point

    def length(self) -> float:
        """Segment length [m]."""
        return distance(self.a, self.b)

    def midpoint(self) -> Point:
        """Segment midpoint."""
        return Point(0.5 * (self.a.x + self.b.x), 0.5 * (self.a.y + self.b.y))


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def segment_intersection(s1: Segment, s2: Segment,
                         tol: float = 1e-9) -> Point | None:
    """Intersection point of two segments, or ``None`` if they miss.

    Endpoint touches count as intersections.  Collinear overlap returns
    the first segment's endpoint that lies on the other segment (the ray
    tracer treats grazing propagation along a wall as blocked).
    """
    p, r_end = s1.a, s1.b
    q, s_end = s2.a, s2.b
    rx, ry = r_end.x - p.x, r_end.y - p.y
    sx, sy = s_end.x - q.x, s_end.y - q.y
    denom = rx * sy - ry * sx
    qpx, qpy = q.x - p.x, q.y - p.y
    if abs(denom) < tol:
        # Parallel.  Check collinearity, then overlap.
        if abs(qpx * ry - qpy * rx) > tol:
            return None
        r_len2 = rx * rx + ry * ry
        if r_len2 < tol:
            return p if distance(p, q) < tol else None
        t0 = (qpx * rx + qpy * ry) / r_len2
        t1 = t0 + (sx * rx + sy * ry) / r_len2
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < -tol or lo > 1 + tol:
            return None
        t = max(0.0, lo)
        return Point(p.x + t * rx, p.y + t * ry)
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if -tol <= t <= 1 + tol and -tol <= u <= 1 + tol:
        return Point(p.x + t * rx, p.y + t * ry)
    return None


def segment_circle_intersects(seg: Segment, centre: Point,
                              radius: float) -> bool:
    """Whether a segment passes within ``radius`` of ``centre``.

    This is the blocker occlusion test: a person is a circle and a
    propagation leg is a segment.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    ax, ay = seg.a.x - centre.x, seg.a.y - centre.y
    bx, by = seg.b.x - centre.x, seg.b.y - centre.y
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(ax, ay) <= radius
    t = -(ax * dx + ay * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(cx, cy) <= radius


def reflect_point_across_line(p: Point, line: Segment) -> Point:
    """Mirror image of ``p`` across the infinite line through ``line``.

    The image method: a first-order reflection off a wall is equivalent to
    a straight ray from the mirrored source.
    """
    ax, ay = line.a.x, line.a.y
    dx, dy = line.b.x - ax, line.b.y - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        raise ValueError("degenerate line segment")
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / len2
    foot = Point(ax + t * dx, ay + t * dy)
    return Point(2.0 * foot.x - p.x, 2.0 * foot.y - p.y)


def angle_of(origin: Point, target: Point) -> float:
    """Absolute bearing [rad] of ``target`` as seen from ``origin``."""
    return math.atan2(target.y - origin.y, target.x - origin.x)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`normalize_angle` over an array, element by element."""
    theta = np.fmod(theta, 2.0 * math.pi)
    return np.where(theta > math.pi, theta - 2.0 * math.pi,
                    np.where(theta <= -math.pi, theta + 2.0 * math.pi,
                             theta))
