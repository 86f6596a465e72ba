"""mixssm: a four-branch (SSM / conv / attention / MLP) image classifier with
softmax-gated per-channel feature fusion, built on a self-contained
numpy-backed reverse-mode autodiff substrate.
"""

from .data import Dataset, generate_synthetic, load_image_folder
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    NumericsError,
    ShapeError,
)
from .gradcheck import finite_diff_check, gradient_suite
from .network import (
    Model,
    ModelConfig,
    desk_config,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Tensor, no_grad
from .train import Adam, Metrics, cross_entropy_loss, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "Dataset",
    "Metrics",
    "Model",
    "ModelConfig",
    "NumericsError",
    "ShapeError",
    "Tensor",
    "cross_entropy_loss",
    "desk_config",
    "evaluate",
    "finite_diff_check",
    "generate_synthetic",
    "gradient_suite",
    "load_checkpoint",
    "load_image_folder",
    "no_grad",
    "save_checkpoint",
    "train",
]
