"""Online LSTM regression with episodic replay across greenhouse datasets.

The package trains a small recurrent model incrementally on streamed
climate windows, protects it from catastrophic forgetting with a
fixed-capacity replay memory, and measures how well the trained model
transfers between greenhouses with different dynamics. Each name is
imported from the module that defines it: ``trainer`` runs scenarios and
baselines, ``memory`` holds the replay memory, ``model`` the LSTM, and
``experiment`` builds all three from a spec.

The package root does one thing: it pins the BLAS and OpenMP pools to
one thread unless the environment already sets them, and imports no
module of its own, so it loads neither numpy nor a submodule. Evaluation
runs one chunk per usable CPU itself, and at this model's shapes a BLAS
thread per chunk thread only adds contention. Every submodule import
runs the root first, so the pin takes effect unless numpy was imported
before ``ghreplay``; then, with a variable unset, the package warns with
a ``RuntimeWarning``.
"""

import os
import sys
import warnings

_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
          if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    warnings.warn(
        f"{', '.join(_unset)} unset and numpy imported before ghreplay: BLAS keeps its own "
        f"threads, which multiply with the evaluation threads; set "
        f"{' '.join(v + '=1' for v in _unset)} in the environment or import ghreplay first",
        RuntimeWarning, stacklevel=2)
del _unset

__version__ = "0.1.0"
