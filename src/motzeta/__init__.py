"""motzeta: exact computer algebra for motivic zeta series.

Exact arithmetic over the localized Grothendieck scalar ring, symbolic and
point-counting realizations of equivariant classes, truncated and closed-form
zeta series of single functions, ordered families and direct sums,
convolution products, and nearby cycles as a limit at infinity.
"""

__version__ = "0.1.0"
