"""Adaptive-scale convolution micro-engine.

Per-pixel fractional dilation rates learned by a small side network,
with hand-written forward/backward passes on plain numpy arrays.
"""

from .convops import (
    ConvLayer,
    asc_conv_backward,
    asc_conv_forward,
    bilinear_kernel,
    build_sampling_plan,
    conv_backward,
    conv_classic_backward,
    conv_classic_forward,
    conv_dilated_backward,
    conv_dilated_forward,
    conv_forward,
    oracle_asc_forward,
    sample_bilinear,
)
from .data import SegmentationSample, SynthConfig, dice, generate_synth, precision, preprocess, recall
from .models import (
    Model,
    ModelSpec,
    RateNetwork,
    build_model,
    load_checkpoint,
    model_backward,
    model_forward,
    rate_network_forward,
    save_checkpoint,
)
from .tensor import Adam, adam_step, load_tensors, make_rng, relu, relu_backward, save_tensors, softmax_cross_entropy
from .training import TrainConfig, TrainReport, evaluate, grad_check, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
