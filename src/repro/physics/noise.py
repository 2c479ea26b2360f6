"""Electronic noise models for the sensing chain.

The paper's second consideration -- *mass transfer is slow compared to
electronics, exploit it creatively, e.g. averaging sensor output for
thermal noise reduction* -- is a statement about white noise: averaging
``N`` independent samples reduces the RMS by ``sqrt(N)``.  This module
provides the physical noise sources of the capacitive/optical readout
chain and the averaging statistics used by claim C3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, ELEMENTARY_CHARGE, ROOM_TEMPERATURE


def johnson_noise_voltage(resistance, bandwidth, temperature=ROOM_TEMPERATURE):
    """RMS Johnson (thermal) noise voltage of a resistor [V].

    v_rms = sqrt(4 k T R B)
    """
    if resistance < 0.0 or bandwidth < 0.0:
        raise ValueError("resistance and bandwidth must be non-negative")
    return math.sqrt(4.0 * BOLTZMANN * temperature * resistance * bandwidth)


def ktc_noise_charge(capacitance, temperature=ROOM_TEMPERATURE):
    """RMS kTC sampling noise charge on a capacitor [C]."""
    if capacitance <= 0.0:
        raise ValueError("capacitance must be positive")
    return math.sqrt(BOLTZMANN * temperature * capacitance)


def ktc_noise_voltage(capacitance, temperature=ROOM_TEMPERATURE):
    """RMS kTC sampling noise voltage on a capacitor [V]."""
    return ktc_noise_charge(capacitance, temperature) / capacitance


def shot_noise_current(dc_current, bandwidth):
    """RMS shot noise current of a DC current [A]: sqrt(2 q I B)."""
    if dc_current < 0.0 or bandwidth < 0.0:
        raise ValueError("current and bandwidth must be non-negative")
    return math.sqrt(2.0 * ELEMENTARY_CHARGE * dc_current * bandwidth)


def flicker_noise_voltage(kf, f_low, f_high):
    """RMS 1/f (flicker) noise voltage integrated over a band [V].

    ``kf`` is the flicker coefficient [V^2] such that the PSD is
    ``kf / f``; integration gives ``sqrt(kf * ln(f_high/f_low))``.
    Flicker noise does *not* average away with repeated sampling, which
    is why the averaging claim is about the *thermal* component.
    """
    if not (0.0 < f_low < f_high):
        raise ValueError("require 0 < f_low < f_high")
    return math.sqrt(kf * math.log(f_high / f_low))


def averaged_white_noise(sigma, n_samples):
    """RMS of the mean of ``n_samples`` i.i.d. white-noise samples.

    The sqrt(N) law at the heart of the paper's time-for-quality trade.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return sigma / math.sqrt(n_samples)


def snr_db(signal_rms, noise_rms):
    """Signal-to-noise ratio in dB."""
    if noise_rms <= 0.0:
        raise ValueError("noise must be positive")
    if signal_rms < 0.0:
        raise ValueError("signal must be non-negative")
    if signal_rms == 0.0:
        return -math.inf
    return 20.0 * math.log10(signal_rms / noise_rms)


def snr_after_averaging(signal_rms, white_sigma, n_samples, floor_sigma=0.0):
    """SNR in dB after averaging ``n_samples``.

    ``floor_sigma`` models the non-averaging residual (flicker, fixed
    pattern noise): total noise is the RSS of the averaged white
    component and the floor.  With a non-zero floor the SNR saturates --
    the realistic version of the sqrt(N) curve.
    """
    white = averaged_white_noise(white_sigma, n_samples)
    total = math.hypot(white, floor_sigma)
    return snr_db(signal_rms, total)


def samples_for_target_snr(signal_rms, white_sigma, target_db, floor_sigma=0.0):
    """Minimum averaging count to reach ``target_db`` SNR, or None.

    Returns ``None`` when the floor makes the target unreachable.
    """
    target_noise = signal_rms / 10.0 ** (target_db / 20.0)
    residual_sq = target_noise**2 - floor_sigma**2
    if residual_sq <= 0.0:
        return None
    return max(1, math.ceil((white_sigma**2) / residual_sq))


@dataclass
class NoiseGenerator:
    """Sampled noise source combining white and flicker-like components.

    Used by the sensor simulations: ``sample(n)`` returns ``n``
    consecutive noise samples where the white part is i.i.d. Gaussian
    and the flicker part is a slowly wandering offset (first-order
    autoregressive process with long correlation), so that averaging
    exhibits the realistic sqrt(N)-then-floor behaviour.

    RNG stream (the reproducibility contract, unchanged): :meth:`sample`
    draws one size-``n`` white array, then -- with flicker enabled --
    one size-``n`` flicker-drive array, and nothing else.  The AR(1)
    recursion runs on Python floats, the same IEEE double operations in
    the same order as a loop over numpy scalars, so every sample and
    the flicker state it leaves are bit for bit the numpy-scalar
    reference's (``tests/sensing_oracles.py``), and so is every reading
    built on them; ``tests/test_sensing_equivalence.py`` pins both.
    """

    white_sigma: float
    flicker_sigma: float = 0.0
    flicker_correlation: float = 0.999
    rng: object = None

    def __post_init__(self):
        if self.white_sigma < 0.0 or self.flicker_sigma < 0.0:
            raise ValueError("noise amplitudes must be non-negative")
        if not 0.0 <= self.flicker_correlation < 1.0:
            raise ValueError("flicker correlation must be in [0, 1)")
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self._flicker_state = (
            self.rng.normal(0.0, self.flicker_sigma) if self.flicker_sigma else 0.0
        )

    def sample(self, n):
        """Return ``n`` consecutive noise samples [same units as sigma]."""
        if n < 1:
            raise ValueError("need n >= 1")
        white = self.rng.normal(0.0, self.white_sigma, size=n) if self.white_sigma else np.zeros(n)
        if self.flicker_sigma == 0.0:
            return white
        rho = self.flicker_correlation
        drive = self.rng.normal(
            0.0, self.flicker_sigma * math.sqrt(1.0 - rho**2), size=n
        )
        # The recursion on Python floats, stored through a memoryview:
        # the cheapest scalar write into the output numpy offers.
        flicker = np.empty(n)
        out = memoryview(flicker)
        state = float(self._flicker_state)
        for i, kick in enumerate(drive.tolist()):
            state = rho * state + kick
            out[i] = state
        self._flicker_state = state
        white += flicker
        return white

    def sample_block(self, n_rows, n):
        """Return an ``(n_rows, n)`` block of noise trajectories.

        The vectorized counterpart of calling :meth:`sample` once per
        channel: each row is one channel's ``n`` consecutive samples.

        RNG stream (documented for reproducibility): one
        ``(n_rows, n)`` white draw, then -- when flicker is enabled --
        one ``(n, n_rows)`` *sample-major* flicker-drive draw (the AR(1)
        recursion walks samples, so the drive is laid out for contiguous
        per-sample access).  Every row's AR(1) flicker trajectory starts
        from the generator's current shared state (physically: the
        channels sample the same slow drift at scan start, then wander
        independently), and the shared state advances to the *last*
        row's final state.  The per-sample distribution is identical to
        sequential :meth:`sample` calls -- the flicker process is
        stationary -- but the draws are not bit-identical to them.
        """
        if n_rows < 1 or n < 1:
            raise ValueError("need n_rows >= 1 and n >= 1")
        white = (
            self.rng.normal(0.0, self.white_sigma, size=(n_rows, n))
            if self.white_sigma
            else np.zeros((n_rows, n))
        )
        if self.flicker_sigma == 0.0:
            return white
        rho = self.flicker_correlation
        drive = self.rng.normal(
            0.0, self.flicker_sigma * math.sqrt(1.0 - rho**2), size=(n, n_rows)
        )
        flicker = np.empty((n, n_rows))
        state = np.full(n_rows, self._flicker_state)
        for i in range(n):
            state *= rho
            state += drive[i]
            flicker[i] = state
        self._flicker_state = float(state[-1])
        white += flicker.T
        return white
