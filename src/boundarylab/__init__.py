"""boundarylab: boundary-concentration invariants at desk scale.

Subpackages by capability:

* :mod:`boundarylab.jacobi`      -- comparison kernels and their inverses;
* :mod:`boundarylab.screens`     -- distributions on the ray carrying the
  concentration invariants (partial/observable inscribed radius, boundary
  separation distance, Ky Fan metric);
* :mod:`boundarylab.models`      -- the model-space catalog and comparison
  bounds;
* :mod:`boundarylab.spectral`    -- weighted Sturm-Liouville spectra,
  isoperimetric scans, and inequality audits;
* :mod:`boundarylab.graphs`      -- finite spaces with boundary as weighted
  graphs;
* :mod:`boundarylab.asymptotics` -- distribution laws, critical scale
  orders, and concentration classification;
* :mod:`boundarylab.cli`         -- the command-line front end.

The six layer modules load on first use (``boundarylab.spectral``,
``from boundarylab import spectral`` or ``import *``), so a process pays
only for the layers, and the SciPy submodules, that it touches.
"""

import importlib

from .errors import DomainError, RegimeError

__version__ = "0.1.0"

_LAYERS = ("asymptotics", "graphs", "jacobi", "models", "screens", "spectral")

__all__ = [
    *_LAYERS,
    "DomainError",
    "RegimeError",
    "__version__",
]


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
