"""Online LSTM regression with episodic replay across greenhouse datasets.

The package trains a small recurrent model incrementally on streamed
climate windows, protects it from catastrophic forgetting with a
fixed-capacity replay memory, and measures how well the trained model
transfers between greenhouses with different dynamics.

Importing the package pins the BLAS and OpenMP pools to one thread
unless the environment already sets them: evaluation runs one chunk
per usable CPU itself, and at this model's shapes a BLAS thread per
chunk thread only adds contention. The pin takes effect only when
``ghreplay`` is imported before numpy; imported after it, with a
variable unset, the package warns with a ``RuntimeWarning``.
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

from .climate import (
    ClimateSeries,
    GreenhouseParams,
    PRESETS,
    generate_series,
    photosynthesis_rate,
    saturation_vapor_pressure,
    transpiration_rate,
    vapor_pressure_deficit,
)
from .dataset import Normalizer, Phase, build_samples
from .memory import EpisodicMemory, MemoryConfig, SubstitutionStrategy
from .model import (
    AdamState,
    ModelConfig,
    ModelParams,
    adam_step,
    backward,
    init_adam,
    init_model,
    mse_loss,
    predict_batch,
)
from .rng import SeededRng
from .trainer import (
    EvalPoint,
    LearningCurve,
    ScenarioConfig,
    evaluate,
    run_baseline,
    run_scenario,
    train_update,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ClimateSeries",
    "EpisodicMemory",
    "EvalPoint",
    "GreenhouseParams",
    "LearningCurve",
    "MemoryConfig",
    "ModelConfig",
    "ModelParams",
    "Normalizer",
    "PRESETS",
    "Phase",
    "ScenarioConfig",
    "SeededRng",
    "SubstitutionStrategy",
    "adam_step",
    "backward",
    "build_samples",
    "evaluate",
    "generate_series",
    "init_adam",
    "init_model",
    "mse_loss",
    "photosynthesis_rate",
    "predict_batch",
    "run_baseline",
    "run_scenario",
    "saturation_vapor_pressure",
    "train_update",
    "transpiration_rate",
    "vapor_pressure_deficit",
]
