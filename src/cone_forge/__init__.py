"""cone-forge: computable checks for special-holonomy cone geometry.

Importing the package loads none of its modules: `cone_forge.edge` (or
`from cone_forge import edge`) imports `edge` on first use, so a command
pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["bessel", "edge", "g2", "lattice", "spectra", "stenzel"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
