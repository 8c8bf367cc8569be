"""The array channel against its scalar reference (``reference_channel``).

``trace_paths`` and the beam sums evaluate every candidate path, leg,
wall and blocker in numpy arrays.  These tests hold them to the scalar
per-path form they replaced:

* the same paths, in the same order, with the same kinds and vertices;
* lengths, bearings and excess losses within a relative 1e-12;
* both beams' complex gains within a relative 1e-12;
* log10 BER (with and without OTAM) within 1e-9.

The geometry comes out bit-identical in practice (lengths and bearings
use the same ``math`` calls); the gains can differ by an ulp, because
numpy's array ``power`` and its scalar ``power`` are different routines.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.antenna.element import DipoleElement
from repro.antenna.orthogonal import measured_mmx_beams
from repro.channel.multipath import ChannelResponse, two_beam_response
from repro.channel.raytrace import trace_paths
from repro.core.link import OtamLink
from repro.experiments.chaos import _facing_link
from repro.sim.environment import Blocker, Room, Wall, default_lab_room
from repro.sim.geometry import Point, Segment
from repro.sim.placement import Placement

from . import reference_channel as reference

REL = 1e-12
LOG10_BER_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def _log10(ber: float) -> float:
    return math.log10(max(ber, 1e-300))


def assert_equivalent(tx: Point, rx: Point, room: Room, max_bounces: int,
                      node_orientation_rad: float = 0.0,
                      ap_orientation_rad: float = math.pi / 2,
                      frequency_hz: float = 24.125e9) -> list:
    """Trace and evaluate both ways; returns the array tracer's paths."""
    want = reference.trace_paths(tx, rx, room, max_bounces=max_bounces)
    got = trace_paths(tx, rx, room, max_bounces=max_bounces)
    assert [(p.kind, p.num_bounces) for p in got] == \
        [(p.kind, p.num_bounces) for p in want]
    for g, w in zip(got, want):
        assert g.vertices == w.vertices
        assert _close(g.length_m, w.length_m)
        assert _close(g.departure_bearing_rad, w.departure_bearing_rad)
        assert _close(g.arrival_bearing_rad, w.arrival_bearing_rad)
        assert _close(g.excess_loss_db, w.excess_loss_db)

    beams, dipole = measured_mmx_beams(), DipoleElement()
    channel = two_beam_response(got, beams, dipole, node_orientation_rad,
                                ap_orientation_rad, frequency_hz)
    h1, h0 = reference.beam_pair_gains(want, beams, dipole,
                                       node_orientation_rad,
                                       ap_orientation_rad, frequency_hz)
    for g, w in ((channel.h1, h1), (channel.h0, h0)):
        assert abs(g - w) <= REL * abs(w)

    link = OtamLink(placement=Placement(tx, node_orientation_rad, rx,
                                        ap_orientation_rad),
                    room=room, frequency_hz=frequency_hz)
    got_snr = link.snr_breakdown(channel=channel)
    want_snr = link.snr_breakdown(
        channel=ChannelResponse(h1=h1, h0=h0, paths=tuple(want)))
    for ber in ("ber_with_otam", "ber_without_otam"):
        assert abs(_log10(getattr(got_snr, ber)())
                   - _log10(getattr(want_snr, ber)())) <= LOG10_BER_TOL
    return got


# --- random rooms and placements ---------------------------------------------

coordinate = st.floats(min_value=0.0, max_value=1.0)
angle = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


@st.composite
def rooms(draw) -> Room:
    """The lab, or a bare rectangle; extra interior walls; 0-3 people."""
    if draw(st.booleans()):
        room = default_lab_room(furniture=draw(st.booleans()))
    else:
        room = Room.rectangular(
            draw(st.floats(min_value=1.0, max_value=8.0)),
            draw(st.floats(min_value=1.0, max_value=8.0)),
            reflection_loss_db=draw(st.floats(min_value=0.0,
                                              max_value=15.0)))

    def inside() -> Point:
        return Point(draw(coordinate) * room.width_m,
                     draw(coordinate) * room.length_m)

    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = inside(), inside()
        if a != b:
            room.add_wall(Wall(Segment(a, b),
                               reflection_loss_db=draw(st.floats(
                                   min_value=0.0, max_value=15.0)),
                               occludes=draw(st.booleans())))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        room.add_blocker(Blocker(inside(),
                                 radius_m=draw(st.floats(min_value=0.05,
                                                         max_value=0.6)),
                                 penetration_loss_db=draw(st.floats(
                                     min_value=0.0, max_value=40.0))))
    return room


@st.composite
def placements(draw):
    room = draw(rooms())

    def inside() -> Point:
        return Point(draw(coordinate) * room.width_m,
                     draw(coordinate) * room.length_m)

    return (inside(), inside(), room, draw(st.sampled_from((0, 1, 2))),
            draw(angle), draw(angle),
            draw(st.floats(min_value=23.9e9, max_value=24.3e9)))


class TestRandomPlacements:
    @settings(max_examples=150, deadline=None)
    @given(placements())
    def test_array_channel_matches_scalar_reference(self, case):
        assert_equivalent(*case)


# --- hand-built degenerate geometry ------------------------------------------


class TestDegenerateGeometry:
    def test_los_parallel_to_walls(self):
        """The chaos link's LoS runs parallel to the east and west walls."""
        link = _facing_link(3.0)
        p = link.placement
        paths = assert_equivalent(p.node_position, p.ap_position, link.room,
                                  link.max_bounces,
                                  p.node_orientation_rad,
                                  p.ap_orientation_rad, link.frequency_hz)
        assert paths[0].is_los

    def test_los_along_an_occluding_wall(self):
        """A leg collinear with a wall takes the parallel branch: it is
        blocked where the overlap starts away from the leg's ends."""
        room = Room.rectangular(4.0, 4.0)
        room.add_wall(Wall(Segment(Point(2.0, 1.0), Point(3.0, 1.0))))
        for bounces in (0, 1, 2):
            paths = assert_equivalent(Point(1.0, 1.0), Point(3.5, 1.0),
                                      room, bounces)
            assert not any(p.is_los for p in paths)

    def test_node_on_a_furniture_line(self):
        room = default_lab_room()
        desk = room.walls[4].segment  # desk-west, y = 2.3, non-occluding
        node = Point(0.4, desk.a.y)
        for bounces in (0, 1, 2):
            assert_equivalent(node, Point(2.0, 0.15), room, bounces,
                              -math.pi / 2)

    def test_node_on_an_occluding_wall(self):
        room = Room.rectangular(4.0, 4.0)
        for bounces in (0, 1, 2):
            assert_equivalent(Point(0.0, 2.0), Point(2.0, 2.0), room,
                              bounces)

    def test_bounce_on_a_wall_endpoint(self):
        """tx, rx mirrored about x = 1: the specular point on the
        reflector y = 2 is exactly its end (1, 2)."""
        room = Room.rectangular(4.0, 4.0)
        room.add_wall(Wall(Segment(Point(0.0, 2.0), Point(1.0, 2.0)),
                           occludes=False))
        paths = assert_equivalent(Point(0.5, 3.0), Point(1.5, 3.0), room, 2)
        assert any(p.num_bounces == 1 and p.vertices[1] == Point(1.0, 2.0)
                   for p in paths)

    def test_blocker_tangent_to_a_leg(self):
        room = Room.rectangular(4.0, 4.0)
        room.add_blocker(Blocker(Point(2.0, 1.25), radius_m=0.25,
                                 penetration_loss_db=27.5))
        paths = assert_equivalent(Point(1.0, 1.0), Point(3.0, 1.0), room, 2)
        los = [p for p in paths if p.is_los]
        assert los and los[0].excess_loss_db == 27.5

    def test_colocated_endpoints(self):
        room = default_lab_room()
        assert_equivalent(Point(2.0, 2.0), Point(2.0, 2.0), room, 2)
