from .config import EncoderConfig, ModelConfig, N_EMOTIONS, N_ETHNICITIES, PatchEncoderConfig, Variant
from .params import ParamSet, init_params, load_checkpoint, save_checkpoint
from .network import (
    ModelInputs,
    ModelOutputs,
    VariantInputError,
    forward,
    predict_emotion,
)
from .losses import LossBreakdown
from .training import (
    AdamState,
    NonFiniteGradientError,
    TrainConfig,
    TrainSample,
    backward,
    evaluate_predictions,
    lr_schedule,
    optimizer_step,
    train_fold,
)
from .features import FrozenEncoder, extract_frozen_features
from .gradcam import ActivationMap, gradcam

__all__ = [
    "EncoderConfig",
    "ModelConfig",
    "N_EMOTIONS",
    "N_ETHNICITIES",
    "PatchEncoderConfig",
    "Variant",
    "ParamSet",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "ModelInputs",
    "ModelOutputs",
    "VariantInputError",
    "forward",
    "predict_emotion",
    "LossBreakdown",
    "AdamState",
    "NonFiniteGradientError",
    "TrainConfig",
    "TrainSample",
    "backward",
    "evaluate_predictions",
    "lr_schedule",
    "optimizer_step",
    "train_fold",
    "FrozenEncoder",
    "extract_frozen_features",
    "ActivationMap",
    "gradcam",
]
