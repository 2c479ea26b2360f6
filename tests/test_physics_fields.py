"""Unit tests for the semi-analytic field solver."""

import math

import numpy as np
import pytest

from repro.physics.constants import um
from repro.physics.fields import (
    ArrayFieldModel,
    ElectrodePatch,
    cage_field_model,
    checkerboard_cage_patches,
    rectangle_solid_angle,
)


class TestSolidAngle:
    def test_full_plane_limit(self):
        """A huge rectangle seen from close by subtends ~2*pi."""
        omega = rectangle_solid_angle(-1.0, 1.0, -1.0, 1.0, 1e-6)
        assert omega == pytest.approx(2.0 * math.pi, rel=1e-4)

    def test_far_field_point_source(self):
        """Far away, Omega -> area * z / r^3."""
        a = 1e-5
        z = 1.0
        omega = rectangle_solid_angle(-a / 2, a / 2, -a / 2, a / 2, z)
        assert omega == pytest.approx(a * a * z / z**3, rel=1e-6)

    def test_off_patch_is_smaller(self):
        on = rectangle_solid_angle(-1, 1, -1, 1, 0.5)
        off = rectangle_solid_angle(4, 6, -1, 1, 0.5)
        assert off < on

    def test_vectorised(self):
        z = np.array([0.1, 1.0, 10.0])
        omega = rectangle_solid_angle(-1.0, 1.0, -1.0, 1.0, z)
        assert omega.shape == (3,)
        assert omega[0] > omega[1] > omega[2]

    def test_symmetry(self):
        """Symmetric positions give the same solid angle."""
        left = rectangle_solid_angle(-3.0, -1.0, -1.0, 1.0, 0.7)
        right = rectangle_solid_angle(1.0, 3.0, -1.0, 1.0, 0.7)
        assert left == pytest.approx(right, rel=1e-12)


class TestElectrodePatch:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ElectrodePatch(0.0, 0.0, 0.0, 1.0, 1.0)


class TestArrayFieldModel:
    def _single_patch_model(self, v=1.0):
        patch = ElectrodePatch(-um(10), um(10), -um(10), um(10), v)
        return ArrayFieldModel(patches=[patch])

    def test_potential_approaches_drive_at_surface(self):
        """Just above the centre of a driven patch, phi ~ V."""
        model = self._single_patch_model(2.0)
        phi = model.potential(0.0, 0.0, um(0.1))
        assert abs(phi) == pytest.approx(2.0, rel=0.05)

    def test_potential_decays_with_height(self):
        model = self._single_patch_model()
        phi_low = abs(model.potential(0.0, 0.0, um(5)))
        phi_high = abs(model.potential(0.0, 0.0, um(50)))
        assert phi_low > phi_high

    def test_rejects_points_below_surface(self):
        model = self._single_patch_model()
        with pytest.raises(ValueError):
            model.potential(0.0, 0.0, -um(1))

    def test_field_points_away_from_positive_patch_above_centre(self):
        model = self._single_patch_model(1.0)
        ex, ey, ez = model.field(0.0, 0.0, um(5))
        # directly above the centre the field is mostly vertical
        assert abs(ez) > abs(ex)
        assert abs(ez) > abs(ey)

    def test_grounded_lid_pulls_potential_down(self):
        no_lid = self._single_patch_model()
        with_lid = ArrayFieldModel(
            patches=list(no_lid.patches), lid_height=um(50), reflections=2
        )
        z = um(40)
        assert abs(with_lid.potential(0, 0, z)) < abs(no_lid.potential(0, 0, z))

    def test_e_squared_nonnegative(self):
        model = self._single_patch_model()
        xs = np.linspace(-um(30), um(30), 7)
        e2 = model.e_squared(xs, 0.0, um(10))
        assert np.all(e2 >= 0.0)


class TestCagePattern:
    def test_patch_count(self):
        patches = checkerboard_cage_patches(um(20), 3.3, radius_cells=2)
        assert len(patches) == 25

    def test_centre_patch_is_counter_phase(self):
        patches = checkerboard_cage_patches(um(20), 3.3, radius_cells=1)
        centre = [
            p for p in patches if p.x_min < 0 < p.x_max and p.y_min < 0 < p.y_max
        ]
        assert len(centre) == 1
        assert centre[0].amplitude == -3.3

    def test_cage_has_central_field_minimum(self):
        """|E|^2 above the cage centre is lower than above the in-phase
        neighbours: that's what makes it a trap for nDEP particles."""
        pitch = um(20)
        model = cage_field_model(pitch, 3.3, lid_height=um(100))
        # the closed minimum forms about one pitch above the surface
        # (where the cage physics levitates the particle)
        z = um(25)
        e2_centre = model.e_squared(0.0, 0.0, z)
        e2_neighbor = model.e_squared(pitch, 0.0, z)
        assert e2_centre < e2_neighbor

    def test_lateral_symmetry(self):
        pitch = um(20)
        model = cage_field_model(pitch, 3.3, lid_height=um(100))
        z = um(15)
        left = model.e_squared(-um(5), 0.0, z)
        right = model.e_squared(um(5), 0.0, z)
        assert left == pytest.approx(right, rel=1e-6)

    def test_force_scale_grows_with_voltage_squared(self):
        """The gradient of E^2 near the cage scales as V^2 (claim C1)."""
        pitch = um(20)
        z = um(15)
        g_low = cage_field_model(pitch, 1.0, um(100)).grad_e2(um(5), 0.0, z)
        g_high = cage_field_model(pitch, 2.0, um(100)).grad_e2(um(5), 0.0, z)
        ratio = g_high[0] / g_low[0]
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_vector_and_scalar_probes_take_the_same_step(self):
        """The finite-difference step is per point, so one vectorised
        call over several heights equals the scalar calls bit for bit
        (the levitation scan brackets the root the solve then refines)."""
        model = cage_field_model(um(20), 3.3, um(100))
        zs = np.array([um(2), um(11), um(23.36), um(60)])
        vector = model.grad_e2(np.zeros_like(zs), np.zeros_like(zs), zs)
        for i, z in enumerate(zs):
            scalar = model.grad_e2(0.0, 0.0, z)
            for axis in range(3):
                assert vector[axis][i] == scalar[axis]
