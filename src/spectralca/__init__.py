"""Bi-directional spectral/spatial cross-attention for hyperspectral patch
classification, built on an in-package reverse-mode autodiff core."""

from .attention import CrossAttention, SelfAttention
from .block import (
    CFG32,
    CFG64,
    PRESETS,
    AuditMismatchError,
    AuditTable,
    BaselineViTBlock,
    SpectralCABlock,
    SpectralCAConfig,
    param_audit,
)
from .classifier import (
    CheckpointError,
    ModelConfig,
    PatchClassifier,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    Hypercube,
    LabelRaster,
    PatchSet,
    extract_patches,
    generate_synthetic,
    load_cube,
    load_labels,
    merge_patchsets,
    save_cube,
    save_labels,
    split,
)
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    average_accuracy,
    kappa,
    objective_j,
    overall_accuracy,
)
from .nn import BatchNorm, Conv2D, Conv3D, LayerNorm, Linear, Module
from .selftrain import (
    PseudoLabelSet,
    SslConfig,
    pseudo_label_select,
    run_self_training,
    self_training_round,
)
from .tensor import NonFiniteError, Parameter, ShapeError, Tape, Tensor, grad_check
from .trainer import (
    Adam,
    BenchReport,
    TrainConfig,
    comparative_benchmark,
    evaluate,
    train,
)
from .verify import gradcheck_suite

__version__ = "0.1.0"

__all__ = [
    "Adam", "AuditMismatchError", "AuditTable", "BaselineViTBlock", "BatchNorm",
    "BenchReport", "CFG32", "CFG64", "CheckpointError", "ConfusionMatrix",
    "Conv2D", "Conv3D", "CrossAttention", "EvalReport", "Hypercube",
    "LabelRaster", "LayerNorm", "Linear", "ModelConfig", "Module",
    "NonFiniteError", "PRESETS", "Parameter", "PatchClassifier", "PatchSet",
    "PseudoLabelSet", "SelfAttention", "ShapeError", "SpectralCABlock",
    "SpectralCAConfig", "SslConfig", "Tape", "Tensor", "TrainConfig",
    "average_accuracy", "comparative_benchmark", "evaluate", "extract_patches",
    "generate_synthetic", "grad_check", "gradcheck_suite", "kappa",
    "load_checkpoint", "load_cube", "load_labels", "merge_patchsets",
    "objective_j", "overall_accuracy", "param_audit", "pseudo_label_select",
    "run_self_training", "save_checkpoint", "save_cube", "save_labels",
    "self_training_round", "split", "train",
]
