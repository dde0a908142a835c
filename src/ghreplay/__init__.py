"""Online LSTM regression with episodic replay across greenhouse datasets.

The package trains a small recurrent model incrementally on streamed
climate windows, protects it from catastrophic forgetting with a
fixed-capacity replay memory, and measures how well the trained model
transfers between greenhouses with different dynamics.

Importing the package pins the BLAS and OpenMP pools to one thread
unless the environment already sets them: evaluation runs one chunk
per usable CPU itself, and at this model's shapes a BLAS thread per
chunk thread only adds contention. The pin takes effect only when
``ghreplay`` is imported before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
from .dataset import Normalizer, Windows, build_samples, default_normalizer
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
    Phase,
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
    "Windows",
    "adam_step",
    "backward",
    "build_samples",
    "default_normalizer",
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
