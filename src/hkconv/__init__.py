"""Hyperbolic deep-learning toolkit on the Lorentz model.

Modules:

* manifold: validated scalar geometry (points, tangent vectors, maps)
* lmath: the same geometry on coordinate arrays, autodiff-transparent
* autodiff: minimal reverse-mode engine, parameter store, Adam
* kernelgen: kernel-point placement solver and experiments
* layers: hyperbolic network layers (feature transform, centroid,
  distance readout, kernel-point convolution)
* graphnet: datasets, model assembly, training and evaluation
* layout: structural node classes, what each conv layer runs on
* invariants: randomized property suites
* cli: command-line entry point (``hkconv``)
"""

__version__ = "0.1.0"

from . import autodiff, errors, graphnet, invariants, kernelgen, layers, layout, lmath, manifold

__all__ = [
    "__version__",
    "autodiff",
    "errors",
    "graphnet",
    "invariants",
    "kernelgen",
    "layers",
    "layout",
    "lmath",
    "manifold",
]
