"""NN substrate: autograd training, quantized inference, attention flows.

Provides everything the accuracy experiments need: a numpy autograd engine,
layers with dual (train / backend-routed inference) paths, int8 PTQ, the
three inference backends (float / int8-exact / YOCO analog), synthetic
datasets and trainable stand-in models.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "attention": (
        "IncrementalAttentionState",
        "flash_attention",
        "standard_attention",
        "yoco_incremental_attention",
        "yoco_incremental_attention_step",
    ),
    "autograd": ("Tensor",),
    "backend": (
        "FloatBackend",
        "InferenceContext",
        "MatmulBackend",
        "QuantizedBackend",
        "YocoBackend",
    ),
    "datasets": ("Dataset", "synthetic_images", "synthetic_sequences"),
    "graph": ("Module", "Sequential"),
    "layers": (
        "Conv2d",
        "Embedding",
        "Flatten",
        "GELU",
        "GlobalAvgPool2d",
        "LayerNorm",
        "Linear",
        "MaxPool2d",
        "MultiHeadSelfAttention",
        "ReLU",
        "ResidualBlock",
        "TransformerBlock",
    ),
    "quant": (
        "ActivationQuant",
        "WeightQuant",
        "calibrate_activation",
        "calibrate_weight",
        "quantization_error",
    ),
    "train": (
        "Adam",
        "TrainHistory",
        "evaluate",
        "evaluate_float_forward",
        "train_classifier",
    ),
    "zoo": (
        "TransformerClassifier",
        "build_cnn_compact",
        "build_cnn_deep",
        "build_cnn_small",
        "build_cnn_wide",
        "build_transformer_small",
        "build_transformer_tiny",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
