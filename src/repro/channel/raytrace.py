"""Image-method ray tracing over the room geometry.

Finds the sparse set of propagation paths between a node and the AP:
the direct (LoS) leg plus first- and optionally second-order wall
reflections.  Each path records its total length, the departure bearing at
the transmitter and arrival bearing at the receiver (absolute angles; the
caller converts to antenna-relative angles), and its *excess* loss —
reflection losses plus any blocker penetration along its legs.

This is the substrate for everything the paper's Fig. 2 and Fig. 4
describe: the LoS path, the environmental reflection OTAM's Beam 0 uses,
and the way a person standing in the LoS leg pushes the direct path 10-15
dB below the reflected one.

The tracer works on arrays: every mirror image, every bounce point,
every leg-against-wall test and every leg-against-blocker test of one
placement is one broadcast numpy expression over all candidate paths.
The rules are those of the scalar primitives in :mod:`repro.sim.geometry`
(``segment_intersection``, ``segment_circle_intersects``,
``reflect_point_across_line``), applied with the same arithmetic, so the
surviving paths' vertices, lengths, bearings and losses are the values
those primitives give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.environment import Room
from ..sim.geometry import Point
from ..units import amplitude_to_db

__all__ = ["PropagationPath", "trace_paths"]

_TOL = 1e-9
"""Parametric tolerance of ``segment_intersection``."""

_MIN_LEG_M = 1e-6
"""Shortest leg a reflection may have, and the endpoint-graze radius:
a wall touched within this distance of a leg's end does not block it
(the bounce point itself lies on its wall)."""


@dataclass(frozen=True)
class PropagationPath:
    """One resolved propagation path between transmitter and receiver."""

    vertices: tuple[Point, ...]
    """Polyline from transmitter to receiver, including bounce points."""

    length_m: float
    """Total unfolded path length [m]."""

    departure_bearing_rad: float
    """Absolute bearing of the first leg, as seen at the transmitter."""

    arrival_bearing_rad: float
    """Absolute bearing pointing from receiver back along the last leg."""

    excess_loss_db: float
    """Reflection + blockage loss beyond free-space over ``length_m``."""

    kind: str
    """'los', 'reflection' or 'reflection2'."""

    num_bounces: int
    """Number of wall reflections along the path."""

    @property
    def is_los(self) -> bool:
        """Whether this is the direct line-of-sight path."""
        return self.num_bounces == 0


_KINDS = ("los", "reflection", "reflection2")
"""``PropagationPath.kind`` by number of bounces."""


def _intersect(px, py, rx, ry, qx, qy, sx, sy):
    """``segment_intersection`` broadcast over arrays of segment pairs.

    Segment one runs from ``p`` along ``r``, segment two from ``q``
    along ``s``.  Returns ``(hit, x, y)``; where ``hit`` is False the
    point is meaningless.
    """
    denom = rx * sy - ry * sx
    qpx, qpy = qx - px, qy - py
    cross = qpx * ry - qpy * rx
    t = (qpx * sy - qpy * sx) / denom
    u = cross / denom
    parallel = np.abs(denom) < _TOL
    hit = ((-_TOL <= t) & (t <= 1 + _TOL) & (-_TOL <= u) & (u <= 1 + _TOL)
           & ~parallel)
    if parallel.any():
        # The scalar parallel branch: collinear overlap hits at segment
        # one's first point on segment two; a degenerate segment one
        # hits only on ``q`` itself.
        r_len2 = rx * rx + ry * ry
        point_like = r_len2 < _TOL
        t0 = (qpx * rx + qpy * ry) / r_len2
        t1 = t0 + (sx * rx + sy * ry) / r_len2
        lo, hi = np.minimum(t0, t1), np.maximum(t0, t1)
        collinear = parallel & ~(np.abs(cross) > _TOL)
        overlap = ~point_like & ~((hi < -_TOL) | (lo > 1 + _TOL))
        on_q = point_like & (np.hypot(px - qx, py - qy) < _TOL)
        hit = hit | (collinear & (overlap | on_q))
        t = np.where(parallel,
                     np.where(point_like, 0.0, np.maximum(0.0, lo)), t)
    return hit, px + t * rx, py + t * ry


def _mirror(x, y, ax, ay, dx, dy, len2):
    """``reflect_point_across_line`` broadcast over points and lines."""
    t = ((x - ax) * dx + (y - ay) * dy) / len2
    return 2.0 * (ax + t * dx) - x, 2.0 * (ay + t * dy) - y


def trace_paths(tx: Point, rx: Point, room: Room,
                max_bounces: int = 1,
                max_excess_loss_db: float = 60.0) -> list[PropagationPath]:
    """All propagation paths between ``tx`` and ``rx`` up to ``max_bounces``.

    Paths whose excess loss exceeds ``max_excess_loss_db`` are pruned —
    they are irrelevant against the paper's 10-35 dB SNR operating range.
    Results are sorted by increasing excess-plus-spreading significance
    (LoS first, then strongest reflections).
    """
    if max_bounces < 0:
        raise ValueError("max_bounces must be >= 0")
    # Parallel pairs divide by a (near-)zero cross product, and
    # candidates whose bounce misses its wall carry the resulting
    # inf/nan through the array passes; both are masked out, never used.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _trace(tx, rx, room, max_bounces, max_excess_loss_db)


def _trace(tx: Point, rx: Point, room: Room, max_bounces: int,
           max_excess_loss_db: float) -> list[PropagationPath]:
    walls = np.array([(w.segment.a.x, w.segment.a.y, w.segment.b.x,
                       w.segment.b.y, w.reflection_loss_db, w.occludes)
                      for w in room.walls], dtype=float).reshape(-1, 6)
    ax, ay, bx, by, wall_loss, occludes = walls.T
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if max_bounces >= 1 and np.any(len2 == 0.0):
        raise ValueError("degenerate line segment")
    n_walls = ax.size
    # Reflection candidates in the scalar order: first order by wall i,
    # then second order by wall pair (i, j), i != j, row-major.  Both
    # leave tx toward a mirror image of rx in wall i (the second order's
    # image is mirrored in wall j first), so their first bounces come
    # from one intersection; second-order paths then run from the first
    # bounce toward rx's image in wall j.
    first = np.arange(n_walls if max_bounces >= 1 else 0)
    pair_i, pair_j = np.nonzero(~np.eye(n_walls if max_bounces >= 2 else 0,
                                        dtype=bool))
    n_f = first.size
    img_x, img_y = _mirror(rx.x, rx.y, ax, ay, dx, dy, len2)
    img2_x, img2_y = img_x[pair_j], img_y[pair_j]
    img1_x, img1_y = _mirror(img2_x, img2_y, ax[pair_i], ay[pair_i],
                             dx[pair_i], dy[pair_i], len2[pair_i])
    wall_i = np.concatenate([first, pair_i])
    hit1, b1_x, b1_y = _intersect(
        tx.x, tx.y, np.concatenate([img_x[first], img1_x]) - tx.x,
        np.concatenate([img_y[first], img1_y]) - tx.y,
        ax[wall_i], ay[wall_i], dx[wall_i], dy[wall_i])
    hit2, b2_x, b2_y = _intersect(
        b1_x[n_f:], b1_y[n_f:], img2_x - b1_x[n_f:], img2_y - b1_y[n_f:],
        ax[pair_j], ay[pair_j], dx[pair_j], dy[pair_j])
    f = np.flatnonzero(hit1[:n_f])
    s = np.flatnonzero(hit1[n_f:] & hit2)
    f_x, f_y = b1_x[f], b1_y[f]
    s1_x, s1_y = b1_x[n_f + s], b1_y[n_f + s]
    s2_x, s2_y = b2_x[s], b2_y[s]
    si, sj = pair_i[s], pair_j[s]

    # Every leg of every candidate with its bounce points, grouped: the
    # LoS leg, first-order legs 1 and 2, second-order legs 1, 2 and 3.
    # ``skip_a``/``skip_b`` are the walls a leg bounces off (-1: none);
    # those never block it.
    sizes = (1, f.size, f.size, s.size, s.size, s.size)

    def legs(*groups):
        return np.concatenate([g if isinstance(g, np.ndarray)
                               else np.full(n, g)
                               for g, n in zip(groups, sizes)])

    leg_ax = legs(tx.x, tx.x, f_x, tx.x, s1_x, s2_x)
    leg_ay = legs(tx.y, tx.y, f_y, tx.y, s1_y, s2_y)
    leg_bx = legs(rx.x, f_x, rx.x, s1_x, s2_x, rx.x)
    leg_by = legs(rx.y, f_y, rx.y, s1_y, s2_y, rx.y)
    skip_a = legs(-1, f, f, si, si, sj)
    skip_b = legs(-1, -1, -1, -1, sj, -1)
    leg_dx, leg_dy = leg_bx - leg_ax, leg_by - leg_ay

    # Legs x occluding walls.  A wall blocks a leg where it crosses it
    # more than the graze radius from both of the leg's ends.
    occluding = np.flatnonzero(occludes)
    col = (slice(None), None)
    hit, hx, hy = _intersect(leg_ax[col], leg_ay[col], leg_dx[col],
                             leg_dy[col], ax[occluding], ay[occluding],
                             dx[occluding], dy[occluding])
    leg, k = np.nonzero(hit & (occluding != skip_a[col])
                        & (occluding != skip_b[col]))
    hx, hy = hx[leg, k], hy[leg, k]
    cuts = ((np.hypot(hx - leg_ax[leg], hy - leg_ay[leg]) > _MIN_LEG_M)
            & (np.hypot(hx - leg_bx[leg], hy - leg_by[leg]) > _MIN_LEG_M))
    ok = np.ones(leg_ax.size, dtype=bool)
    ok[leg[cuts]] = False
    # A reflection with a leg shorter than the minimum is dropped; the
    # LoS leg (index 0) has no minimum.
    ok[1:] &= np.hypot(leg_ax[1:] - leg_bx[1:],
                       leg_ay[1:] - leg_by[1:]) >= _MIN_LEG_M

    # Legs x blockers (``segment_circle_intersects``): penetration
    # losses summed in blocker order.
    leg_loss = np.zeros(leg_ax.size)
    for blocker in room.blockers:
        cx, cy = blocker.position.x, blocker.position.y
        ox, oy = leg_ax - cx, leg_ay - cy
        sx, sy = (leg_bx - cx) - ox, (leg_by - cy) - oy
        seg_len2 = sx * sx + sy * sy
        t = np.where(seg_len2 == 0.0, 0.0,
                     np.clip(-(ox * sx + oy * sy) / seg_len2, 0.0, 1.0))
        inside = np.hypot(ox + t * sx, oy + t * sy) <= blocker.radius_m
        leg_loss = leg_loss + np.where(inside, blocker.penetration_loss_db,
                                       0.0)

    # Per candidate: valid when every leg is, excess = bounce losses
    # plus leg losses (summed as the scalar tracer sums them).
    los, l_f1, l_f2, l_s1, l_s2, l_s3 = (
        slice(end - n, end)
        for n, end in zip(sizes, np.cumsum(sizes).tolist()))
    valid = np.concatenate([ok[los], ok[l_f1] & ok[l_f2],
                            ok[l_s1] & ok[l_s2] & ok[l_s3]])
    excess = np.concatenate([
        leg_loss[los],
        wall_loss[f] + leg_loss[l_f1] + leg_loss[l_f2],
        (wall_loss[si] + wall_loss[sj])
        + (leg_loss[l_s1] + leg_loss[l_s2] + leg_loss[l_s3]),
    ])
    keep = np.flatnonzero(valid & (excess <= max_excess_loss_db))
    order = np.repeat([0, 1, 2], (1, f.size, s.size))[keep].tolist()
    x1 = np.concatenate([[np.nan], f_x, s1_x])[keep].tolist()
    y1 = np.concatenate([[np.nan], f_y, s1_y])[keep].tolist()
    x2 = np.concatenate([np.full(1 + f.size, np.nan), s2_x])[keep].tolist()
    y2 = np.concatenate([np.full(1 + f.size, np.nan), s2_y])[keep].tolist()

    # The survivors as paths.  Lengths and bearings use the scalar math
    # of ``Segment.length`` (``math.hypot``) and ``angle_of``.
    paths = []
    lengths = []
    hypot, atan2 = math.hypot, math.atan2
    for n, u1, v1, u2, v2, loss in zip(order, x1, y1, x2, y2,
                                       excess[keep].tolist()):
        if n == 0:
            vertices: tuple[Point, ...] = (tx, rx)
            length = hypot(tx.x - rx.x, tx.y - rx.y)
            dep = atan2(rx.y - tx.y, rx.x - tx.x)
            arr = atan2(tx.y - rx.y, tx.x - rx.x)
        elif n == 1:
            vertices = (tx, Point(u1, v1), rx)
            length = (hypot(tx.x - u1, tx.y - v1)
                      + hypot(u1 - rx.x, v1 - rx.y))
            dep = atan2(v1 - tx.y, u1 - tx.x)
            arr = atan2(v1 - rx.y, u1 - rx.x)
        else:
            vertices = (tx, Point(u1, v1), Point(u2, v2), rx)
            length = (hypot(tx.x - u1, tx.y - v1)
                      + hypot(u1 - u2, v1 - v2)
                      + hypot(u2 - rx.x, v2 - rx.y))
            dep = atan2(v1 - tx.y, u1 - tx.x)
            arr = atan2(v2 - rx.y, u2 - rx.x)
        lengths.append(length)
        paths.append(PropagationPath(
            vertices=vertices, length_m=length,
            departure_bearing_rad=dep, arrival_bearing_rad=arr,
            excess_loss_db=loss, kind=_KINDS[n], num_bounces=n))
    # Sort by a rough strength proxy: excess loss plus spreading loss
    # relative to a 1 m reference (20 log10 of the length ratio).
    strength = excess[keep] + amplitude_to_db(np.maximum(lengths, 1e-3))
    return [paths[i] for i in np.argsort(strength, kind="stable").tolist()]
