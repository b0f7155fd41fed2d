"""Model architectures: the rate network, the four experiment variants,
full-network forward/backward, and checkpoint serialization.

`VARIANT_LAYERS` gives each variant's conv kind and hidden widths; a final
conv to num_classes logits follows them. Dilated layers take `DILATED_RATES`.

Every non-final conv is followed by ReLU; the final conv emits raw logits.
Adaptive variants compute one rate field per image from the raw input and
share it across all adaptive layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convops, tensor
from .convops import ADAPTIVE, CLASSIC, DILATED, ConvLayer

CLASSIC7 = "classic7"
DILATED7 = "dilated7"
ASCNET7 = "ascnet7"
ASCNET14 = "ascnet14"

# Each variant's conv kind and hidden widths, in checkpoint-id order.
VARIANT_LAYERS = {
    CLASSIC7: (CLASSIC, (8,) * 6),
    DILATED7: (DILATED, (8,) * 6),
    ASCNET7: (ADAPTIVE, (8,) * 6),
    ASCNET14: (ADAPTIVE, (32,) * 13),
}
VARIANTS = tuple(VARIANT_LAYERS)

DILATED_RATES = (1, 1, 2, 4, 8, 16, 1)
RATE_NET_CHANNELS = (8, 4, 1)
_RATENET = "ratenet."  # name prefix of the rate network's parameters


@dataclass
class ModelSpec:
    variant: str
    num_classes: int = 2
    height: int = 64
    width: int = 64
    in_channels: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        for name, least in (("num_classes", 2), ("height", 1), ("width", 1),
                            ("in_channels", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name}: {value!r} must be >= {least}")

    def check_input(self, shape, source, model_source) -> None:
        """Raise ValueError unless an image `shape` (..., C, H, W) ends in
        the (C, H, W) this model was built for, the only one it can score.
        The message names the images' `source` and the `model_source`."""
        got = tuple(shape[-3:])
        if got != (self.in_channels, self.height, self.width):
            c, h, w = got
            raise ValueError(
                f"{source}: images are {h}x{w}x{c}, but {model_source} holds "
                f"{self.height}x{self.width}x{self.in_channels} (dims HxWxC)")


@dataclass
class RateNetwork:
    """3-layer classic-conv subnetwork mapping the raw image to the rate
    field. All three convs are followed by ReLU, so rates are >= 0."""

    layers: list


@dataclass
class Model:
    spec: ModelSpec
    layers: list
    ratenet: RateNetwork | None = None

    @property
    def is_adaptive(self):
        return self.ratenet is not None


def _he_layers(rng, prev, channels, kind, dtype):
    """He-initialized 3x3 convs with zero bias, mapping prev channels
    through `channels` in turn; dilated layers take `DILATED_RATES`."""
    layers = []
    for i, ch in enumerate(channels):
        w = tensor.he_init(rng, (ch, prev, 3, 3), dtype)
        rate = DILATED_RATES[i] if kind == DILATED else 1
        layers.append(ConvLayer(w, np.zeros(ch, dtype=dtype), kind, rate))
        prev = ch
    return layers


def _build_ratenet(rng, in_channels, dtype):
    layers = _he_layers(rng, in_channels, RATE_NET_CHANNELS[:-1], CLASSIC, dtype)
    # Zero weights + bias 1.0 so a fresh network emits rates == 1
    # everywhere and the model starts out as a classic CNN.
    ch, prev = RATE_NET_CHANNELS[-1], RATE_NET_CHANNELS[-2]
    layers.append(ConvLayer(np.zeros((ch, prev, 3, 3), dtype=dtype),
                            np.ones(ch, dtype=dtype), CLASSIC))
    return RateNetwork(layers)


def build_model(spec: ModelSpec, rng, dtype=np.float32) -> Model:
    """Instantiate a variant with He-initialized conv weights."""
    if isinstance(rng, (int, np.integer)):
        rng = tensor.make_rng(int(rng))
    kind, hidden = VARIANT_LAYERS[spec.variant]
    # The rate network draws from rng first, then the trunk.
    ratenet = (_build_ratenet(rng, spec.in_channels, dtype) if kind == ADAPTIVE
               else None)
    layers = _he_layers(rng, spec.in_channels, hidden + (spec.num_classes,),
                        kind, dtype)
    return Model(spec, layers, ratenet)


def build_reduced_asc_model(seed=0) -> Model:
    """Shallow float64 adaptive model on 8x8 images (two adaptive convs, 4
    hidden channels, 2 classes) for gradient checking; not a ModelSpec
    variant."""
    rng = tensor.make_rng(seed)
    ratenet = _build_ratenet(rng, 1, np.float64)
    layers = _he_layers(rng, 1, [4, 2], ADAPTIVE, np.float64)
    return Model(ModelSpec(ASCNET7, 2, 8, 8, 1), layers, ratenet)


def _stack_forward(layers, x, plan, relu_last, return_cache):
    """Conv+ReLU through `layers` (no ReLU after the last unless relu_last).
    Returns (output, cache); the cache, None without return_cache, holds
    every layer's input, pre-activation and conv cache. Without it, ReLU
    overwrites each conv's fresh output; the caller's input is never
    written."""
    inputs, preacts, conv_caches = [], [], []
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z, conv_cache = convops.conv_forward(x, layer, plan, return_cache)
        if return_cache:
            inputs.append(x)
            preacts.append(z)
            conv_caches.append(conv_cache)
        if relu_last or i != last:
            x = tensor.relu(z) if return_cache else np.maximum(z, 0, out=z)
        else:
            x = z
    cache = {"inputs": inputs, "preacts": preacts, "asc_caches": conv_caches}
    return x, cache if return_cache else None


def _stack_backward(layers, cache, g, relu_last, prefix, grads):
    """Adjoint of `_stack_forward`: puts "{prefix}layer{i}.weight"/".bias"
    into grads and returns the rate gradient summed over the adaptive
    layers, or None."""
    grad_rates = None
    last = len(layers) - 1
    for i in range(last, -1, -1):
        if relu_last or i != last:
            g = tensor.relu_backward(cache["preacts"][i], g)
        g, gw, gb, gr = convops.conv_backward(
            cache["inputs"][i], layers[i], g, cache["asc_caches"][i])
        if gr is not None:
            grad_rates = gr if grad_rates is None else grad_rates + gr
        grads[f"{prefix}layer{i}.weight"] = gw
        grads[f"{prefix}layer{i}.bias"] = gb
    return grad_rates


def rate_network_forward(image, net: RateNetwork, return_cache=False):
    """Raw image -> (1,1,H,W) non-negative rate field (conv+ReLU three times)."""
    rates, cache = _stack_forward(net.layers, image, None, True, return_cache)
    return (rates, cache) if return_cache else rates


def rate_network_backward(net, cache, grad_rates):
    """Backprop through the rate network; returns grads keyed like
    checkpoint names ("ratenet.layer{j}.weight" / ".bias")."""
    grads = {}
    _stack_backward(net.layers, cache, grad_rates, True, _RATENET, grads)
    return grads


def model_forward(model: Model, image, return_cache=False):
    """Run the network. Returns (logits, rates) where rates is None for the
    classic/dilated variants. With return_cache=True also returns the
    activation cache `model_backward` reads: each trunk layer's "inputs",
    "preacts" and "asc_caches" (conv caches, which hold the shared
    sampling plan), and the rate network's cache "ratenet" (None for a
    variant without one)."""
    rates = plan = ratenet_cache = None
    if model.is_adaptive:
        out = rate_network_forward(image, model.ratenet, return_cache)
        rates, ratenet_cache = out if return_cache else (out, None)
        plan = convops.build_sampling_plan(rates, *image.shape[2:])

    logits, cache = _stack_forward(model.layers, image, plan, False, return_cache)
    if return_cache:
        cache["ratenet"] = ratenet_cache
        return logits, rates, cache
    return logits, rates


def model_backward(model: Model, cache, grad_logits):
    """Gradients for every parameter given d(loss)/d(logits).

    Rate-field gradients from all adaptive layers accumulate into one field
    gradient which then backpropagates through the rate network. Keys match
    checkpoint parameter names.
    """
    if cache is None or "preacts" not in cache:
        raise ValueError("model_backward requires the cache from model_forward")
    grads = {}
    grad_rates = _stack_backward(model.layers, cache, grad_logits, False, "",
                                 grads)
    if model.is_adaptive:
        grads.update(rate_network_backward(model.ratenet, cache["ratenet"],
                                           grad_rates))
    return grads


def param_dict(model: Model) -> dict:
    """Named views of every trainable array (mutating them updates the model)."""
    stacks = [("", model.layers)]
    if model.is_adaptive:
        stacks.append((_RATENET, model.ratenet.layers))
    params = {}
    for prefix, layers in stacks:
        for i, layer in enumerate(layers):
            params[f"{prefix}layer{i}.weight"] = layer.weights
            params[f"{prefix}layer{i}.bias"] = layer.bias
    return params


def save_checkpoint(model: Model, path) -> None:
    spec = model.spec
    tensors = {
        "spec": np.array(
            [VARIANTS.index(spec.variant), spec.num_classes, spec.height,
             spec.width], dtype=np.float32,
        )
    }
    tensors.update(param_dict(model))
    tensor.save_tensors(path, tensors)


def load_checkpoint(path) -> Model:
    tensors = tensor.load_tensors(path)
    if "spec" not in tensors:
        raise ValueError(f"{path}: checkpoint missing 'spec' tensor")
    spec_values = tensors["spec"]
    integral = np.isfinite(spec_values) & (spec_values == np.floor(spec_values))
    if spec_values.shape != (4,) or not np.all(integral):
        raise ValueError(f"{path}: malformed 'spec' tensor {spec_values!r}")
    vid, num_classes, h, w = (int(v) for v in spec_values)
    if vid not in range(len(VARIANTS)):
        raise ValueError(
            f"{path}: unknown variant id {vid} in 'spec' (expected 0-"
            f"{len(VARIANTS) - 1})"
        )
    variant = VARIANTS[vid]
    first = tensors.get("layer0.weight")
    if first is None or first.ndim != 4:
        raise ValueError(f"{path}: checkpoint missing a 4-D 'layer0.weight'")
    in_channels = first.shape[1]
    try:
        spec = ModelSpec(variant, num_classes, h, w, in_channels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # num_classes sizes the logits layer: match it against the file before
    # build_model allocates that layer.
    logits = f"layer{len(VARIANT_LAYERS[variant][1])}.weight"
    if logits not in tensors or tensors[logits].shape[:1] != (num_classes,):
        raise ValueError(f"{path}: 'spec' gives {num_classes} classes, but the "
                         f"checkpoint holds no {logits} with that many rows")
    model = build_model(spec, rng=0, dtype=first.dtype)
    params = param_dict(model)
    # A tensor the model has no parameter for is another variant's or a
    # misspelt one: loading without it would silently drop weights.
    extra = sorted(set(tensors) - set(params) - {"spec"})
    if extra:
        raise ValueError(f"{path}: {variant} has no parameter for tensor(s) "
                         f"{', '.join(extra)}")
    for name, arr in params.items():
        if name not in tensors:
            raise ValueError(f"{path}: checkpoint missing parameter {name}")
        if tensors[name].shape != arr.shape:
            raise ValueError(
                f"{path}: parameter {name} has shape {tensors[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = tensors[name]
    return model
