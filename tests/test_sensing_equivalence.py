"""The sensing hot path against the implementations it replaced.

``NoiseGenerator.sample`` runs its AR(1) flicker recursion on Python
floats, ``AnalogToDigital.quantise`` works in place on one copy, and
``Biochip.sense`` caches its threshold and per-sample time.  None of
that may change a reading or the random stream: every check compares
values with ``np.array_equal`` (or ``==`` on floats) and the RNG's
``bit_generator.state`` after every call, against the oracles in
``sensing_oracles``.
"""

import copy

import numpy as np
import pytest

from repro import Biochip
from repro.bio import mammalian_cell
from repro.faults import FaultModel
from repro.physics.noise import NoiseGenerator
from repro.sensing.readout import AnalogToDigital
from sensing_oracles import (
    OracleBiochip,
    oracle_quantise,
    oracle_sample,
    oracle_sample_block,
)

SOURCES = {
    "white": dict(white_sigma=1.3e-4),
    "flicker": dict(white_sigma=0.0, flicker_sigma=2e-5),
    "both": dict(white_sigma=1.5e-4, flicker_sigma=2e-5),
}


def twin_generators(kind, seed=7):
    """Two identical generators on two identically seeded RNGs."""
    return tuple(
        NoiseGenerator(rng=np.random.default_rng(seed), **SOURCES[kind])
        for __ in range(2)
    )


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("n", [1, 2, 199, 200, 2000])
def test_sample_matches_oracle(kind, n):
    gen, ref = twin_generators(kind)
    for __ in range(3):
        got = gen.sample(n)
        expected = oracle_sample(ref, n)
        assert got.dtype == expected.dtype and got.shape == (n,)
        assert np.array_equal(got, expected)
        assert gen._flicker_state == ref._flicker_state
        assert_same_stream(gen.rng, ref.rng)


@pytest.mark.parametrize("kind", sorted(SOURCES))
@pytest.mark.parametrize("shape", [(1, 1), (1, 200), (7, 1), (31, 250)])
def test_sample_block_matches_oracle(kind, shape):
    gen, ref = twin_generators(kind, seed=3)
    for __ in range(2):
        got = gen.sample_block(*shape)
        expected = oracle_sample_block(ref, *shape)
        assert np.array_equal(got, expected)
        assert gen._flicker_state == ref._flicker_state
        assert_same_stream(gen.rng, ref.rng)
        # the two forms interleave on one stream
        assert np.array_equal(gen.sample(5), oracle_sample(ref, 5))
        assert_same_stream(gen.rng, ref.rng)


ADC = AnalogToDigital(bits=10, full_scale=1.0)
RAIL_VALUES = [-1.0, -0.0, 0.0, 1e-9, 0.37, 0.999, 1.0, 1.0 + 1e-12, 2.0]


@pytest.mark.parametrize("value", RAIL_VALUES)
def test_quantise_scalar_and_zero_d(value):
    for given in (value, np.float64(value), np.asarray(value)):
        got = ADC.quantise(given)
        expected = oracle_quantise(ADC, given)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert type(got) is type(expected)
        assert got == expected


@pytest.mark.parametrize("bits,full_scale", [(1, 1.0), (10, 1.0), (12, 3.3),
                                             (24, 0.5)])
def test_quantise_list_and_array_at_both_rails(bits, full_scale):
    adc = AnalogToDigital(bits=bits, full_scale=full_scale)
    rng = np.random.default_rng(bits)
    volts = np.concatenate([
        rng.uniform(-0.5, 1.5, size=500) * full_scale,
        [-full_scale, -0.0, 0.0, full_scale, 2 * full_scale,
         np.nextafter(full_scale, 0.0), np.nextafter(full_scale, 9.0)],
    ])
    for given in (volts.tolist(), volts, volts.reshape(-1, 1),
                  volts.astype(np.float32)):
        before = copy.deepcopy(given)
        got = adc.quantise(given)
        assert np.array_equal(got, oracle_quantise(adc, given))
        assert np.array_equal(np.asarray(given), np.asarray(before))
    assert adc.quantise(volts) is not volts


def _twin_chips(chip_factory, faults=None):
    chip = chip_factory(Biochip)
    ref = chip_factory(OracleBiochip)
    if faults is not None:
        chip.apply_faults(faults)
        ref.apply_faults(faults)
    # share the (RNG-free) levitation solve: it is the same physics on
    # both chips and the slowest step of a first sense
    particle = mammalian_cell()
    chip._particle_signal(particle)
    ref._levitation_cache = dict(chip._levitation_cache)
    ref._signal_cache = dict(chip._signal_cache)
    return chip, ref, particle


def _assert_same_results(got, expected):
    assert got == expected  # SenseResult dataclass equality: every field


CHIPS = {
    "small": lambda cls: cls.small_chip(seed=11),
    "paper": lambda cls: cls.paper_chip(seed=5),
}


@pytest.mark.parametrize("chip_name", sorted(CHIPS))
def test_sense_and_sense_all_sequences_match_oracle(chip_name):
    chip, ref, particle = _twin_chips(CHIPS[chip_name])
    sites = [(2 * i, 3 * i + 1) for i in range(12)]
    for k, site in enumerate(sites):
        payload = particle if k % 3 else None
        a = chip.trap(site, payload)
        b = ref.trap(site, payload)
        assert a.cage_id == b.cage_id
    ids = [c.cage_id for c in chip.cages.cages]
    for n in (1, 2, 17, 200, 200, 999, 2000):
        for cage_id in ids[: 4 if n > 200 else None]:
            _assert_same_results(chip.sense(cage_id, n), ref.sense(cage_id, n))
            assert_same_stream(chip.rng, ref.rng)
    for n in (1, 200, 1000):
        got = chip.sense_all(n)
        expected = ref.sense_all(n)
        assert [i for i, __ in got] == [i for i, __ in expected]
        for (__, a), (__, b) in zip(got, expected):
            _assert_same_results(a, b)
        assert_same_stream(chip.rng, ref.rng)
        _assert_same_results(chip.sense(ids[0], 300), ref.sense(ids[0], 300))
    assert chip.history == ref.history
    assert chip.elapsed == ref.elapsed
    assert (chip.readout._noise._flicker_state
            == ref.readout._noise._flicker_state)


def test_sense_with_sensor_faults_matches_oracle():
    """Corrupted readings, quarantine and neighbour re-scans draw the
    same stream too."""
    faults = FaultModel.random((48, 48), dead_sensor_fraction=0.1,
                               noisy_sensor_fraction=0.15, seed=4)
    chip, ref, particle = _twin_chips(CHIPS["small"], faults=faults)
    for site in [(4 * i, 4 * j + 2) for i in range(1, 10) for j in range(1, 10)]:
        chip.trap(site, particle)
        ref.trap(site, particle)
    ids = [c.cage_id for c in chip.cages.cages]
    for n in (50, 200):
        for cage_id in ids:
            try:
                got = chip.sense(cage_id, n)
            except Exception as error:  # noqa: BLE001 - compared below
                got = (type(error), str(error))
            try:
                expected = ref.sense(cage_id, n)
            except Exception as error:  # noqa: BLE001
                expected = (type(error), str(error))
            assert got == expected
            assert_same_stream(chip.rng, ref.rng)
    got = chip.sense_all(100)
    expected = ref.sense_all(100)
    assert got == expected
    assert chip.history == ref.history
    assert chip.sensor_quarantine.rescans == ref.sensor_quarantine.rescans
    assert chip.sensor_quarantine.rescans > 0
