"""Scalar reference for the geometric channel.

This is the per-path, per-wall form of :func:`repro.channel.trace_paths`
and of the beam-gain sum in :mod:`repro.channel.multipath`: one Python
call per candidate path, per leg, per wall and per blocker.  The library
evaluates the same rules over arrays; ``test_channel_equivalence.py``
checks the two against each other.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.channel.pathloss import (
    free_space_path_loss_db,
    oxygen_absorption_db,
)
from repro.channel.raytrace import PropagationPath
from repro.sim.environment import Room, Wall
from repro.sim.geometry import (
    Point,
    Segment,
    angle_of,
    distance,
    normalize_angle,
    reflect_point_across_line,
    segment_intersection,
)
from repro.units import amplitude_to_db, db_to_amplitude, wavelength


def _wall_blocks(leg: Segment, walls: list[Wall],
                 skip: set[int]) -> bool:
    """Whether any wall (except those in ``skip``) cuts a leg's interior."""
    for i, wall in enumerate(walls):
        if i in skip or not wall.occludes:
            continue
        hit = segment_intersection(leg, wall.segment)
        if hit is None:
            continue
        # Endpoint grazes (the leg starts/ends exactly on the wall, e.g.
        # the bounce point itself) do not count as blockage.
        if distance(hit, leg.a) > 1e-6 and distance(hit, leg.b) > 1e-6:
            return True
    return False


def _leg_loss_db(leg: Segment, room: Room) -> float:
    """Blocker penetration loss along one leg."""
    return room.blockage_loss_db(leg)


def _los_path(tx: Point, rx: Point, room: Room) -> PropagationPath | None:
    leg = Segment(tx, rx)
    if _wall_blocks(leg, room.walls, skip=set()):
        return None
    return PropagationPath(
        vertices=(tx, rx),
        length_m=leg.length(),
        departure_bearing_rad=angle_of(tx, rx),
        arrival_bearing_rad=angle_of(rx, tx),
        excess_loss_db=_leg_loss_db(leg, room),
        kind="los",
        num_bounces=0,
    )


def _first_order_path(tx: Point, rx: Point, room: Room,
                      wall_idx: int) -> PropagationPath | None:
    wall = room.walls[wall_idx]
    image = reflect_point_across_line(rx, wall.segment)
    bounce = segment_intersection(Segment(tx, image), wall.segment)
    if bounce is None:
        return None
    leg1 = Segment(tx, bounce)
    leg2 = Segment(bounce, rx)
    if leg1.length() < 1e-6 or leg2.length() < 1e-6:
        return None
    if (_wall_blocks(leg1, room.walls, skip={wall_idx})
            or _wall_blocks(leg2, room.walls, skip={wall_idx})):
        return None
    excess = (wall.reflection_loss_db
              + _leg_loss_db(leg1, room) + _leg_loss_db(leg2, room))
    return PropagationPath(
        vertices=(tx, bounce, rx),
        length_m=leg1.length() + leg2.length(),
        departure_bearing_rad=angle_of(tx, bounce),
        arrival_bearing_rad=angle_of(rx, bounce),
        excess_loss_db=excess,
        kind="reflection",
        num_bounces=1,
    )


def _second_order_path(tx: Point, rx: Point, room: Room,
                       first_idx: int, second_idx: int
                       ) -> PropagationPath | None:
    if first_idx == second_idx:
        return None
    w1 = room.walls[first_idx]
    w2 = room.walls[second_idx]
    # Image of rx in w2, then image of that in w1.
    image2 = reflect_point_across_line(rx, w2.segment)
    image1 = reflect_point_across_line(image2, w1.segment)
    bounce1 = segment_intersection(Segment(tx, image1), w1.segment)
    if bounce1 is None:
        return None
    bounce2 = segment_intersection(Segment(bounce1, image2), w2.segment)
    if bounce2 is None:
        return None
    legs = [Segment(tx, bounce1), Segment(bounce1, bounce2),
            Segment(bounce2, rx)]
    if any(leg.length() < 1e-6 for leg in legs):
        return None
    skips = [{first_idx}, {first_idx, second_idx}, {second_idx}]
    for leg, skip in zip(legs, skips):
        if _wall_blocks(leg, room.walls, skip=skip):
            return None
    excess = (w1.reflection_loss_db + w2.reflection_loss_db
              + sum(_leg_loss_db(leg, room) for leg in legs))
    return PropagationPath(
        vertices=(tx, bounce1, bounce2, rx),
        length_m=sum(leg.length() for leg in legs),
        departure_bearing_rad=angle_of(tx, bounce1),
        arrival_bearing_rad=angle_of(rx, bounce2),
        excess_loss_db=excess,
        kind="reflection2",
        num_bounces=2,
    )


def trace_paths(tx: Point, rx: Point, room: Room,
                max_bounces: int = 1,
                max_excess_loss_db: float = 60.0) -> list[PropagationPath]:
    """Scalar form of :func:`repro.channel.trace_paths`."""
    if max_bounces < 0:
        raise ValueError("max_bounces must be >= 0")
    paths: list[PropagationPath] = []
    los = _los_path(tx, rx, room)
    if los is not None:
        paths.append(los)
    if max_bounces >= 1:
        for i in range(len(room.walls)):
            p = _first_order_path(tx, rx, room, i)
            if p is not None:
                paths.append(p)
    if max_bounces >= 2:
        for i in range(len(room.walls)):
            for j in range(len(room.walls)):
                p = _second_order_path(tx, rx, room, i, j)
                if p is not None:
                    paths.append(p)
    paths = [p for p in paths if p.excess_loss_db <= max_excess_loss_db]
    # Sort by a rough strength proxy: excess loss plus spreading loss
    # relative to a 1 m reference (20 log10 of the length ratio).
    paths.sort(key=lambda p: p.excess_loss_db
               + float(amplitude_to_db(max(p.length_m, 1e-3))))
    return paths


def beam_channel_gain(paths, tx_field, rx_field,
                      tx_orientation_rad: float,
                      rx_orientation_rad: float,
                      frequency_hz: float) -> complex:
    """Scalar form of :func:`repro.channel.beam_channel_gain`."""
    lam = float(wavelength(frequency_hz))
    total = 0.0 + 0.0j
    for p in paths:
        dep = normalize_angle(p.departure_bearing_rad - tx_orientation_rad)
        arr = normalize_angle(p.arrival_bearing_rad - rx_orientation_rad)
        g_tx = float(np.asarray(tx_field(dep), dtype=float))
        g_rx = float(np.asarray(rx_field(arr), dtype=float))
        if g_tx <= 0.0 or g_rx <= 0.0:
            continue
        loss_db = (float(free_space_path_loss_db(p.length_m, frequency_hz))
                   + float(oxygen_absorption_db(p.length_m, frequency_hz))
                   + p.excess_loss_db)
        amplitude = g_tx * g_rx * float(db_to_amplitude(-loss_db))
        phase = -2.0 * np.pi * p.length_m / lam
        total += amplitude * np.exp(1j * phase)
    return complex(total)


def beam_pair_gains(paths, beams, ap_element,
                    node_orientation_rad: float,
                    ap_orientation_rad: float,
                    frequency_hz: float) -> tuple[complex, complex]:
    """``(h1, h0)`` over traced paths, one scalar beam sum per bit."""
    h1, h0 = (beam_channel_gain(
        paths,
        tx_field=lambda theta, b=bit: beams.field(b, theta),
        rx_field=ap_element.field,
        tx_orientation_rad=node_orientation_rad,
        rx_orientation_rad=ap_orientation_rad,
        frequency_hz=frequency_hz) for bit in (1, 0))
    return h1, h0
