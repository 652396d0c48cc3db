"""Implicit FEM contact dynamics with recursive constraint correction.

The package couples linear-FE soft bodies and rigid spheres through
Signorini/Coulomb contact constraints solved by projected Gauss-Seidel,
and offers three correction schemes per time step: the classic single
corrective motion, a recursive (Newton) correction that rebuilds the
compliance operator from system solves every iteration, and a fast
recursive correction that rebuilds it by a blockwise congruence of the
direction-independent mapping compliance and updates the relative proximity
positions without touching the mechanical system.

Import from the submodules: ``scene`` (scene files, ``Simulation``, ``run``,
snapshots), ``solver`` (PGS and the Newton loops), ``collision``
(detection and contact frames), ``constraints`` (compliance assembly),
``dynamics`` (soft and rigid bodies), ``linalg`` (``Factorization``),
``mesh`` (tet meshes), ``bench``, ``verify``, ``cli`` and ``errors``. This
module imports none of them, so ``import contactnewton.cli`` loads no numpy
and the CLI's thread cap is set before numpy's BLAS starts.
"""

__version__ = "0.1.0"
