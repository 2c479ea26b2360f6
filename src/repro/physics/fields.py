"""Semi-analytic electric field of a programmable electrode array.

The paper's chip synthesises dielectrophoretic cages by applying a
pattern of in-phase / counter-phase sinusoidal voltages to an array of
square microelectrodes beneath the liquid, with a conductive (ITO) lid
acting as a counter-electrode (Fig. 3 of the paper).

We model the potential in the liquid half-space above the electrode
plane with the exact Dirichlet solution for a flat boundary held at a
piecewise-constant potential: the potential contributed by a rectangular
patch at amplitude ``V`` is ``V * Omega / (2 pi)`` where ``Omega`` is the
solid angle the rectangle subtends at the observation point.  The solid
angle of an axis-aligned rectangle has a closed form as a sum of four
arctangent corner terms, so the whole array field is an exact,
vectorised superposition -- no mesh, no PDE solve.

A grounded lid at height ``lid_height`` is handled with image patches
(odd mirror images about the lid plane), truncated after a configurable
number of reflections; two reflections are plenty for lid heights of the
order of the electrode pitch.

The quantity DEP cares about is ``grad |E_rms|^2``; we expose both the
potential/field and a numerically differentiated ``grad_e2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rectangle_solid_angle(dx1, dx2, dy1, dy2, z):
    """Solid angle of an axis-aligned rectangle seen from above.

    The rectangle spans ``[dx1, dx2] x [dy1, dy2]`` in the plane ``z=0``
    (coordinates relative to the observation point's footprint) and the
    observation point sits at height ``z > 0``.  All arguments may be
    broadcastable numpy arrays.

    Uses the corner decomposition::

        Omega = sum_{corners} sign * atan2(a*b, z*sqrt(a^2+b^2+z^2))
    """

    def corner(a, b):
        return np.arctan2(a * b, z * np.sqrt(a * a + b * b + z * z))

    return corner(dx2, dy2) - corner(dx1, dy2) - corner(dx2, dy1) + corner(dx1, dy1)


@dataclass
class ElectrodePatch:
    """A rectangular electrode held at a (phasor) amplitude.

    ``amplitude`` is the RMS phasor amplitude of the sinusoidal drive:
    +V for in-phase, -V for counter-phase, 0 for grounded.  Complex
    amplitudes are allowed for quadrature-phase patterns.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    amplitude: complex

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate electrode patch")


@dataclass
class ArrayFieldModel:
    """Field model for a set of electrode patches plus an optional lid.

    Parameters
    ----------
    patches:
        The driven electrodes.  Patches at amplitude zero may be omitted:
    lid_height:
        Height of the grounded conductive lid [m], or ``None`` for an
        open half-space.
    lid_amplitude:
        Phasor amplitude of the lid (0 for a grounded lid).
    reflections:
        Number of image reflections used to satisfy the lid boundary
        condition (0 disables the lid images; 2 is accurate to <1% for
        typical chamber aspect ratios).
    """

    patches: list = field(default_factory=list)
    lid_height: float | None = None
    lid_amplitude: complex = 0.0
    reflections: int = 2

    def potential(self, x, y, z):
        """Complex potential phasor at the points ``(x, y, z)`` [V].

        ``x, y, z`` are broadcastable arrays; ``z`` must be positive
        (inside the liquid).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0.0):
            raise ValueError("observation points must satisfy z > 0 (inside liquid)")
        phi = np.zeros(np.broadcast(x, y, z).shape, dtype=complex)
        two_pi = 2.0 * np.pi
        for patch in self.patches:
            if patch.amplitude == 0.0:
                continue
            omega = rectangle_solid_angle(
                patch.x_min - x, patch.x_max - x, patch.y_min - y, patch.y_max - y, z
            )
            phi = phi + patch.amplitude * omega / two_pi
            if self.lid_height is not None:
                for n in range(1, self.reflections + 1):
                    # Odd images about the lid plane enforce phi=lid value
                    # there; alternating sign mirrors about z = n * 2h.
                    z_img = 2.0 * n * self.lid_height - z if n % 2 else z - 2.0 * n * self.lid_height
                    z_img = np.abs(z_img)
                    omega_img = rectangle_solid_angle(
                        patch.x_min - x,
                        patch.x_max - x,
                        patch.y_min - y,
                        patch.y_max - y,
                        z_img,
                    )
                    sign = -1.0 if n % 2 else 1.0
                    phi = phi + sign * patch.amplitude * omega_img / two_pi
        if self.lid_height is not None and self.lid_amplitude != 0.0:
            phi = phi + self.lid_amplitude * (z / self.lid_height)
        return phi

    def field(self, x, y, z, step=None):
        """Complex field phasor (Ex, Ey, Ez) by central differences [V/m]."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        h = self._step(z, step)
        ex = -(self.potential(x + h, y, z) - self.potential(x - h, y, z)) / (2.0 * h)
        ey = -(self.potential(x, y + h, z) - self.potential(x, y - h, z)) / (2.0 * h)
        ez = -(self.potential(x, y, z + h) - self.potential(x, y, z - h)) / (2.0 * h)
        return ex, ey, ez

    def e_squared(self, x, y, z, step=None):
        """|E_rms|^2 at the observation points [V^2/m^2]."""
        ex, ey, ez = self.field(x, y, z, step=step)
        return (np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2).real

    def grad_e2(self, x, y, z, step=None):
        """Gradient of |E_rms|^2, the drive term of the DEP force [V^2/m^3]."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        h = self._step(z, step)
        gx = (self.e_squared(x + h, y, z, step) - self.e_squared(x - h, y, z, step)) / (2.0 * h)
        gy = (self.e_squared(x, y + h, z, step) - self.e_squared(x, y - h, z, step)) / (2.0 * h)
        gz = (self.e_squared(x, y, z + h, step) - self.e_squared(x, y, z - h, step)) / (2.0 * h)
        return gx, gy, gz

    def _step(self, z, step):
        # Per point, so a vectorised scan and a scalar probe at the same
        # height take the same finite-difference step.
        if step is not None:
            return step
        return np.maximum(0.02 * z, 1e-9)


def checkerboard_cage_patches(pitch, voltage, center=(0.0, 0.0), radius_cells=2):
    """Electrode pattern of a single DEP cage (counter-phase centre electrode).

    The paper's chip creates a closed nDEP cage by driving one electrode
    in counter-phase (-V) while its neighbourhood is driven in phase
    (+V) with the lid grounded; the field minimum sits above the
    counter-phase electrode and traps a negative-DEP particle in
    levitation.  This helper builds the ``(2*radius_cells+1)^2`` patch
    neighbourhood centred at ``center`` (a grid-aligned point).

    Returns a list of :class:`ElectrodePatch`.
    """
    cx, cy = center
    patches = []
    for i in range(-radius_cells, radius_cells + 1):
        for j in range(-radius_cells, radius_cells + 1):
            amplitude = -voltage if (i == 0 and j == 0) else +voltage
            x0 = cx + (i - 0.5) * pitch
            y0 = cy + (j - 0.5) * pitch
            patches.append(
                ElectrodePatch(x0, x0 + pitch, y0, y0 + pitch, amplitude)
            )
    return patches


def cage_field_model(pitch, voltage, lid_height, center=(0.0, 0.0), radius_cells=2):
    """Convenience constructor: a single-cage :class:`ArrayFieldModel`."""
    return ArrayFieldModel(
        patches=checkerboard_cage_patches(pitch, voltage, center, radius_cells),
        lid_height=lid_height,
    )
