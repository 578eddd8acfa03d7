"""Row-sparse discriminative deep dictionary learning.

Trains a stack of dictionaries jointly so that every class's deepest codes
share one sparse row support and different classes' supports are pushed
apart; classifies by nearest stored code under l0 (count of differing
coordinates) or l1 distance.
"""

from .greedy import Architecture, dict_learn
from .inference import (
    Prediction,
    classify_l0,
    classify_l1,
    encode_test,
    predict_batch,
)
from .joint import (
    DropMode,
    FitReport,
    Model,
    TrainConfig,
    TrainingDivergedError,
    joint_train,
)
from .metrics import average_accuracy, confusion_matrix, kappa, mcnemar_z, overall_accuracy
from .numerics import Activation, Rng
from .sparse import prox_push, pursuit
from .dataio import (
    DataFormatError,
    Dataset,
    HsiCube,
    extract_spatial_spectral,
    load_model,
    make_dataset,
    save_model,
    split_per_class,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "Architecture",
    "DataFormatError",
    "Dataset",
    "DropMode",
    "FitReport",
    "HsiCube",
    "Model",
    "Prediction",
    "Rng",
    "TrainConfig",
    "TrainingDivergedError",
    "average_accuracy",
    "classify_l0",
    "classify_l1",
    "confusion_matrix",
    "dict_learn",
    "encode_test",
    "extract_spatial_spectral",
    "joint_train",
    "kappa",
    "load_model",
    "make_dataset",
    "mcnemar_z",
    "overall_accuracy",
    "predict_batch",
    "prox_push",
    "pursuit",
    "save_model",
    "split_per_class",
]
