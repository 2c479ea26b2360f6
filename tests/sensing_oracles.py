"""Behavioural references for the sensing hot path.

The package's sensing chain was rewritten for host speed with every
reading, and the random stream behind it, kept bit for bit.  These are
the implementations it replaced, kept as oracles for
``tests/test_sensing_equivalence.py``:

* :func:`oracle_sample` -- ``NoiseGenerator.sample`` with the AR(1)
  flicker recursion as a loop over numpy scalars;
* :func:`oracle_sample_block` -- ``NoiseGenerator.sample_block``;
* :func:`oracle_quantise` -- ``AnalogToDigital.quantise`` as two
  ``np.clip`` passes and fresh temporaries;
* :class:`OracleBiochip` -- a :class:`~repro.core.platform.Biochip`
  whose readout chain runs the three functions above with the readout
  arithmetic of that time (``np.mean`` of the quantised samples) and
  recomputes the detection threshold on every read.
"""

from __future__ import annotations

import math

import numpy as np

from repro import Biochip
from repro.physics.noise import NoiseGenerator
from repro.sensing.readout import AnalogToDigital, CapacitiveReadoutChain


def oracle_sample(gen, n):
    """``n`` consecutive noise samples of generator ``gen``."""
    if n < 1:
        raise ValueError("need n >= 1")
    white = gen.rng.normal(0.0, gen.white_sigma, size=n) if gen.white_sigma else np.zeros(n)
    if gen.flicker_sigma == 0.0:
        return white
    rho = gen.flicker_correlation
    drive = gen.rng.normal(
        0.0, gen.flicker_sigma * math.sqrt(1.0 - rho**2), size=n
    )
    flicker = np.empty(n)
    state = gen._flicker_state
    for i in range(n):
        state = rho * state + drive[i]
        flicker[i] = state
    gen._flicker_state = state
    return white + flicker


def oracle_sample_block(gen, n_rows, n):
    """An ``(n_rows, n)`` block of noise trajectories of ``gen``."""
    if n_rows < 1 or n < 1:
        raise ValueError("need n_rows >= 1 and n >= 1")
    white = (
        gen.rng.normal(0.0, gen.white_sigma, size=(n_rows, n))
        if gen.white_sigma
        else np.zeros((n_rows, n))
    )
    if gen.flicker_sigma == 0.0:
        return white
    rho = gen.flicker_correlation
    drive = gen.rng.normal(
        0.0, gen.flicker_sigma * math.sqrt(1.0 - rho**2), size=(n, n_rows)
    )
    flicker = np.empty((n, n_rows))
    state = np.full(n_rows, gen._flicker_state)
    for i in range(n):
        state *= rho
        state += drive[i]
        flicker[i] = state
    gen._flicker_state = float(state[-1])
    white += flicker.T
    return white


def oracle_quantise(adc, voltages):
    """Quantise voltages to code centres of ``adc``, clipping at the rails."""
    v = np.clip(np.asarray(voltages, dtype=float), 0.0, adc.full_scale)
    codes = np.floor(v / adc.lsb)
    codes = np.clip(codes, 0, 2**adc.bits - 1)
    return (codes + 0.5) * adc.lsb


class OracleNoiseGenerator(NoiseGenerator):
    def sample(self, n):
        return oracle_sample(self, n)

    def sample_block(self, n_rows, n):
        return oracle_sample_block(self, n_rows, n)


class OracleADC(AnalogToDigital):
    def quantise(self, voltages):
        return oracle_quantise(self, voltages)


class OracleReadoutChain(CapacitiveReadoutChain):
    def sample_pixel(self, particle=None, height=None, n_samples=1):
        signal = self.signal_voltage(particle, height) if particle is not None else 0.0
        analog = self.pedestal + signal + self._noise.sample(n_samples)
        return self.adc.quantise(analog)

    def averaged_reading_from_signal(self, signal, n_samples=1):
        analog = self.pedestal + signal + self._noise.sample(n_samples)
        return float(np.mean(self.adc.quantise(analog))) - self.pedestal

    def batch_readings(self, signals, n_samples=1, max_block=4_000_000):
        if n_samples < 1:
            raise ValueError("need at least one sample")
        signals = np.asarray(signals, dtype=float)
        readings = np.empty(signals.size)
        block = max(1, max_block // n_samples)
        for start in range(0, signals.size, block):
            chunk = signals[start : start + block]
            analog = self._noise.sample_block(chunk.size, n_samples)
            analog += self.pedestal
            analog += chunk[:, None]
            readings[start : start + block] = (
                self.adc.quantise(analog).mean(axis=1) - self.pedestal
            )
        return readings


class OracleBiochip(Biochip):
    """A chip on the replaced sensing implementations.

    The readout objects are re-classed in place rather than rebuilt:
    building a new noise generator would draw its initial flicker state
    from the chip's generator and shift the random stream.
    """

    def __post_init__(self):
        super().__post_init__()
        self.readout.__class__ = OracleReadoutChain
        self.readout._noise.__class__ = OracleNoiseGenerator
        self.readout.adc.__class__ = OracleADC

    def _detection_threshold(self, n_samples):
        return 5.0 * max(
            self.readout.noise_after_averaging(n_samples),
            self.readout.adc.quantisation_noise_rms() / math.sqrt(n_samples),
        )
