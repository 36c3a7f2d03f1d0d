"""Structure, asymptotics, and decay experiments for partially dissipative
linear hyperbolic systems ``du/dt + sum_j A_j d_j u + B u = 0``.

The package verifies the structural conditions under which such a system
relaxes to a drift-diffusion equation, computes the limit coefficients in
closed form from the null vectors of the relaxation matrix and the
high-frequency expansion from eigen-data, evolves solutions spectrally on
periodic grids, and fits the observed decay rates of the low/high-frequency
solution parts against the predicted ones.  Contour quadrature remains as
the spectral engine's fallback and audit projection and, in
``hyprelax.perturbation``, as the oracle for the closed forms.
Names are imported from the submodules (``hyprelax.model``,
``hyprelax.chapman``, ``hyprelax.spectral``, ``hyprelax.harness``, ...);
the command line is ``hyprelax.cli``.
"""

__version__ = "0.1.0"
