"""Combining sparse paths into per-beam complex channel gains.

This is where OTAM's physics lives.  For a chosen transmit beam, each
traced path contributes a complex amplitude

    a_p = 10^((G_tx(phi_dep) + G_rx(phi_arr) - FSPL(L) - excess) / 20)
          * exp(-j 2 pi L / lambda)

and the beam's channel gain is ``h = sum_p a_p``.  The received power for
that beam is ``EIRP-referenced``: we fold the transmit pattern in as a
*relative* pattern on top of the node's EIRP, so

    P_rx[dBm] = EIRP_peak[dBm] + 20 log10 |h|.

The two beams see different path sets (Beam 1 lights up the LoS leg,
Beam 0 the ±30° reflections), so their gains differ — that difference *is*
the over-the-air ASK signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.geometry import Point, normalize_angles
from ..units import amplitude_to_db, db_to_amplitude, wavelength
from .pathloss import free_space_path_loss_db, oxygen_absorption_db
from .raytrace import PropagationPath, trace_paths

__all__ = ["ChannelResponse", "PathArrays", "beam_channel_gain",
           "two_beam_gains", "two_beam_response"]


@dataclass(frozen=True)
class ChannelResponse:
    """Complex channel gains for both node beams at one placement.

    ``h0``/``h1`` are EIRP-referenced field gains built from the
    *normalised* antenna patterns: received power for bit b is
    ``EIRP_peak_dbm + G_ap_peak_dbi + 20 log10 |h_b|`` (the link layer
    adds the AP's absolute 5 dBi).  ``paths`` keeps the traced rays for
    inspection.
    """

    h1: complex
    h0: complex
    paths: tuple[PropagationPath, ...]

    def level_db(self, bit: int) -> float:
        """Received level for a bit, in dB relative to the node's EIRP."""
        h = self.h1 if bit == 1 else self.h0
        mag = abs(h)
        return float(amplitude_to_db(mag)) if mag > 0 else float("-inf")

    @property
    def ask_contrast_db(self) -> float:
        """|level difference| between the beams [dB] — the ASK opening."""
        a, b = abs(self.h1), abs(self.h0)
        hi, lo = max(a, b), min(a, b)
        if hi == 0.0:
            return 0.0
        if lo == 0.0:
            return float("inf")
        return float(amplitude_to_db(hi / lo))

    @property
    def inverted(self) -> bool:
        """True when Beam 0 is received *stronger* than Beam 1.

        This is the blocked-LoS situation of Fig. 4(b): all bits arrive
        inverted and the preamble must flip them back.
        """
        return abs(self.h0) > abs(self.h1)

    def difference_gain(self) -> float:
        """|h1 - h0| — amplitude of the OTAM decision distance.

        The envelope detector distinguishes bits by the *difference* of
        the two received levels, so this (squared) is the signal power
        entering the ASK BER formula.
        """
        return abs(abs(self.h1) - abs(self.h0))

    def stronger_gain(self) -> float:
        """max(|h1|, |h0|) — the level FSK detection rides on."""
        return max(abs(self.h1), abs(self.h0))


@dataclass(frozen=True)
class PathArrays:
    """Traced paths as parallel arrays, in path order."""

    length_m: np.ndarray
    departure_bearing_rad: np.ndarray
    arrival_bearing_rad: np.ndarray
    excess_loss_db: np.ndarray

    @classmethod
    def of(cls, paths) -> PathArrays:
        """The arrays of a sequence of :class:`PropagationPath` (or
        ``paths`` itself when it already is a :class:`PathArrays`)."""
        if isinstance(paths, PathArrays):
            return paths
        paths = tuple(paths)
        return cls(
            np.array([p.length_m for p in paths], dtype=float),
            np.array([p.departure_bearing_rad for p in paths], dtype=float),
            np.array([p.arrival_bearing_rad for p in paths], dtype=float),
            np.array([p.excess_loss_db for p in paths], dtype=float))

    def propagation(self, frequency_hz: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Each path's ``(amplitude, rotation)`` between isotropic antennas.

        ``amplitude = 10^(-(FSPL + O2 + excess) / 20)`` and ``rotation =
        exp(-j 2 pi L / lambda)``; a beam's path term is ``g_tx * g_rx *
        amplitude * rotation``.
        """
        loss_db = (free_space_path_loss_db(self.length_m, frequency_hz)
                   + oxygen_absorption_db(self.length_m, frequency_hz)
                   + self.excess_loss_db)
        lam = float(wavelength(frequency_hz))
        phase = -2.0 * np.pi * self.length_m / lam
        return db_to_amplitude(-loss_db), np.exp(1j * phase)


def _sum_paths(g_tx, g_rx, amplitude: np.ndarray,
               rotation: np.ndarray) -> complex:
    """``sum_p g_tx g_rx a_p e^(j phi_p)`` in path order.

    A path is dropped where either pattern is not positive.  The sum
    runs sequentially (``cumsum``), not pairwise, so it adds the terms
    in the order a per-path loop would.
    """
    g_tx = np.asarray(g_tx, dtype=float)
    g_rx = np.asarray(g_rx, dtype=float)
    dropped = (g_tx <= 0.0) | (g_rx <= 0.0)
    terms = np.where(dropped, 0.0, (g_tx * g_rx * amplitude) * rotation)
    if terms.size == 0:
        return 0j
    return complex(np.cumsum(terms)[-1])


def beam_channel_gain(paths, tx_field, rx_field,
                      tx_orientation_rad: float,
                      rx_orientation_rad: float,
                      frequency_hz: float) -> complex:
    """Complex channel gain for one transmit beam over traced paths.

    Parameters
    ----------
    paths:
        A sequence of :class:`PropagationPath` or their
        :class:`PathArrays`.
    tx_field, rx_field:
        Callables mapping an array of antenna-relative angles [rad] to
        *field amplitude* relative to each pattern's peak (1.0 at peak).
    tx_orientation_rad, rx_orientation_rad:
        Absolute boresight bearings of node and AP antennas.
    frequency_hz:
        Carrier frequency, for the phase term and FSPL.
    """
    arrays = PathArrays.of(paths)
    dep = normalize_angles(arrays.departure_bearing_rad
                           - tx_orientation_rad)
    arr = normalize_angles(arrays.arrival_bearing_rad - rx_orientation_rad)
    return _sum_paths(tx_field(dep), rx_field(arr),
                      *arrays.propagation(frequency_hz))


def two_beam_response(paths, beams, ap_element,
                      node_orientation_rad: float,
                      ap_orientation_rad: float,
                      frequency_hz: float) -> ChannelResponse:
    """Evaluate both node beams over already-traced paths.

    Path geometry does not depend on the carrier, so one traced path
    set serves every carrier (and every beam pair) at a placement.
    ``beams`` is an :class:`repro.antenna.OrthogonalBeamPair`;
    ``ap_element`` anything with a ``field(theta)`` method (the AP
    dipole).
    """
    paths = tuple(paths)
    arrays = PathArrays.of(paths)
    dep = normalize_angles(arrays.departure_bearing_rad
                           - node_orientation_rad)
    g_rx = ap_element.field(
        normalize_angles(arrays.arrival_bearing_rad - ap_orientation_rad))
    propagation = arrays.propagation(frequency_hz)
    return ChannelResponse(
        h1=_sum_paths(beams.field(1, dep), g_rx, *propagation),
        h0=_sum_paths(beams.field(0, dep), g_rx, *propagation),
        paths=paths)


def two_beam_gains(node_position: Point, ap_position: Point, room,
                   beams, ap_element,
                   node_orientation_rad: float,
                   ap_orientation_rad: float,
                   frequency_hz: float,
                   max_bounces: int = 1) -> ChannelResponse:
    """Trace the room once and evaluate both node beams against it.

    ``beams`` is an :class:`repro.antenna.OrthogonalBeamPair`;
    ``ap_element`` anything with a ``field(theta)`` method (the AP dipole).
    """
    paths = trace_paths(node_position, ap_position, room,
                        max_bounces=max_bounces)
    return two_beam_response(paths, beams, ap_element,
                             node_orientation_rad, ap_orientation_rad,
                             frequency_hz)
